"""Integer chain complexes and exact homology via Smith normal form.

Boundary matrices use the alternating-sum convention d = sum_i (-1)^i d_i
with d_i deleting the i-th chain entry, so exports are reproducible
bit-for-bit. All arithmetic is arbitrary-precision: SNF pivots blow up
quickly on complexes with a few hundred cells.

The SNF pipeline first eliminates +-1 pivots by left-looking column
reduction (``_unit_reduce``): each column is reduced by the stored
pivot columns while its largest row is a pivot row, becomes the pivot
of that row if the entry there is +-1, and otherwise goes to a residual,
which is cleared of every pivot row at the end. Nerve boundary matrices
are sparse with unit entries, so this typically removes well over 90%
of the cells; a dense SNF runs on the small residual. A rank-only mode
over the rationals is available for fast Betti numbers; torsion mode is
the default.

Block argument. Every step adds an integer multiple of one column to
another, so it is unimodular. A pivot column is +-e_p plus entries in
rows r < p, and a residual column is zero on every pivot row. With
pivot rows and columns first, both ordered by p, the matrix is
[[T, 0], [B, R]] with T unit upper triangular, hence invertible over
the integers. Column operations by T^-1 make that block the identity,
whose rows then clear the block below it by row operations, so
SNF = (1, ..., 1) + SNF(R), one 1 per pivot.

Cost, before -> after: a right-looking sweep that, per pivot, updated
every other row of its column and kept a row table and a column-to-rows
table in step, O(|column| * |row|) dict updates and table edits per
pivot -> one pass over the columns, where a reduction step costs
O(|pivot column|) dict updates and O(log) heap operations, and only the
pivot columns are stored. The heap matters where a column is reduced
many times: a column that ends as a cycle walks its whole support, and
a scan for its largest row at every step made the homology of braid(5)'s
order-2 order complex take 123 s instead of 6.7 s. A column's rows go
on a heap only once its largest row, found by one scan, is a pivot row
(or when a residual column is cleared): heaps, before -> after, one per
column -> one per column that needs a reduction step. Most nerve
columns become pivots at once and cost one scan of their n + 1 rows.

``homology`` reduces the boundary maps jointly, from d_top down to d_1,
and clears: before d_n is reduced, the columns of the n-cells that were
unit-pivot rows of d_{n+1} are deleted (Chen-Kerber, "Persistent
homology computation with a twist", 2011; each unit pivot is a
reduction pair in the sense of Kaczynski-Mrozek-Slusarek, "Homology
computation by reduction of chain complexes", 1998). Clearing argument:
the reduced pivot column of row p is a boundary +-e_p + sum_{r<p} c_r e_r,
so d_n . d_{n+1} = 0 makes d_n(e_p) an integer combination of the
columns d_n(e_r) with r < p, and by induction on p a combination of
columns that are not cleared. The columns kept span the same lattice as
all of d_n, so every rank and invariant factor of d_n is unchanged. The
precondition is d . d = 0, which ``chain_complex`` verifies. Cost of the
reduction of d_n, before -> after: all |C_n| = rank d_n + rank d_{n+1} +
beta_n columns -> about rank d_n + beta_n columns plus the non-unit part
of d_{n+1}.

``chain_complex`` certifies d . d = 0 by the simplicial identities
d_i d_j = d_{j-1} d_i (i < j), which pair the terms of d(d(c)) so that
they cancel; ``delta.py`` owns their check. Cost per n-cell, before ->
after: (n+1)*n dict updates, multiplying its column into the columns of
d_{n-1} -> n(n+1)/2 integer comparisons. Where an identity fails the
columns of that dimension are multiplied out as before, so exactly the
complexes with d . d != 0 raise. The matrices are held as their columns,
which the unit elimination reads directly. Where the identities hold,
a map keeps the face table and the signs and builds its column dicts
on the first read: columns, before -> after, built at construction ->
built on first read. A chain complex made only for its d . d = 0
certificate, as in a sphere test whose homology is known from an equal
complex, builds none. A sphere test whose poset is already in its face
category's memo makes no chain complex at all: ``chain_complex`` returns
the one certified on the memo's complex by the first such test.
"""

from __future__ import annotations

from collections.abc import Container, Mapping
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .delta import DeltaComplex, _identity_failures, f_vector
from .lp import _rank

__all__ = [
    "ChainComplex",
    "HomologyResult",
    "chain_complex",
    "homology",
    "snf_diagonal",
    "integer_rank",
]

Matrix = Mapping[tuple[int, int], int]


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices; shape[n] counts n-chains.

    boundaries[n] is the matrix of d_{n+1}: C_{n+1} -> C_n as a sparse
    {(row, col): value} map, rows indexed by n-chains. ``chain_complex``
    stores each as its columns (a read-only mapping of that form); a
    hand-built complex may use plain dicts.
    """

    shape: tuple[int, ...]
    boundaries: tuple[Matrix, ...]

    def boundary(self, n: int) -> Matrix:
        """Matrix of d_n: C_n -> C_{n-1}; zero map outside 1..dim."""
        if 1 <= n <= len(self.boundaries):
            return self.boundaries[n - 1]
        return {}


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers and torsion invariant factors per dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def trimmed(self) -> "HomologyResult":
        """Drop trailing zero groups, for comparisons across models whose
        complexes have different top dimensions."""
        top = len(self.betti)
        while top and self.betti[top - 1] == 0 and not self.torsion[top - 1]:
            top -= 1
        return HomologyResult(self.betti[:top], self.torsion[:top])

    def pretty(self) -> str:
        parts = []
        for b, tor in zip(self.betti, self.torsion):
            s = " + ".join(
                ([f"Z^{b}" if b > 1 else "Z"] if b else [])
                + [f"Z/{t}" for t in tor]
            )
            parts.append(s or "0")
        return "(" + ", ".join(parts) + ")"


def chain_complex(k: DeltaComplex) -> ChainComplex:
    """Boundary matrices of a Delta complex, with d.d = 0 verified.

    d.d = 0 is certified one dimension at a time by the simplicial
    identities (``delta._identity_failures``): they pair the n(n+1) terms
    of d(d(c)) into cancelling pairs; the module docstring gives the
    cost. Only in a dimension where an identity fails (or the table is
    ragged) is each column multiplied out, so a complex whose identities
    fail but whose boundary still squares to zero builds, and the first
    column with d(d(c)) != 0 raises ValueError, here and not on a later
    read. Where the identities hold, the map is returned as a ``_Columns``
    over the face table and the signs, and its column dicts are built on
    the first read. Cost of a call whose maps are never read, before ->
    after: the identity check plus one dict per cell -> the identity
    check alone.

    A complex held in a face category's sphere-test memo carries its
    chain complex as ``_chain``, attached by ``css._sphere_homology_ok``
    after this function certified it on that same immutable complex;
    it is returned as it is. Nothing is kept on any other complex.
    """
    known = k.__dict__.get("_chain")
    if known is not None:
        return known
    mats: list[_Columns] = []
    for n in range(1, k.dim() + 1):
        signs = [(-1) ** i for i in range(n + 1)]
        faces = k.faces[n - 1]
        if _identity_failures(k, n) == []:  # None: a malformed table
            mats.append(_Columns(faces, signs))
            continue
        prev = mats[-1].columns if mats else []
        cols = []
        for c in range(k.size(n)):
            col = _column(faces[c], signs)
            if n > 1:
                acc: dict[int, int] = {}
                for f, v in col.items():
                    for r, w in prev[f].items():
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    raise ValueError(
                        f"boundary squared is nonzero in dimension {n}"
                    )
            cols.append(col)
        mats.append(_Columns(faces, signs, cols))
    return ChainComplex(f_vector(k), tuple(mats))


def _column(faces: tuple[int, ...], signs: list[int]) -> dict[int, int]:
    """The column sum_i signs[i] * faces[i], without zero entries."""
    col: dict[int, int] = {}
    for f, s in zip(faces, signs):
        v = col.get(f, 0) + s
        if v:
            col[f] = v
        else:
            del col[f]
    return col


class _Columns(Mapping):
    """A sparse integer matrix held as its columns: columns[j] maps row
    indices to nonzero entries, column j being sum_i signs[i] * faces[j][i].
    It reads as the {(row, col): value} map, columns in order; its length
    is the number of nonzero entries.

    The column dicts are built on the first read (``columns``, ``len``,
    iteration, ``[]``, ``repr``) and kept; until then only the face table
    and the signs are held. Cost of construction, before -> after: one
    dict per cell -> O(1).
    """

    __slots__ = ("_faces", "_signs", "_columns", "_nnz")

    def __init__(self, faces, signs: list[int], columns=None):
        self._faces = faces
        self._signs = signs
        self._columns: list[dict[int, int]] | None = None
        if columns is not None:
            self._store(columns)

    def _store(self, columns: list[dict[int, int]]) -> None:
        self._columns = columns
        self._nnz = sum(map(len, columns))
        self._faces = self._signs = None

    def _build(self) -> None:
        faces, signs = self._faces, self._signs
        n = len(signs) - 1
        cols = [dict(zip(row, signs)) for row in faces]
        for c, col in enumerate(cols):
            if len(col) <= n:  # a repeated (or missing) face
                cols[c] = _column(faces[c], signs)
        self._store(cols)

    @property
    def columns(self) -> list[dict[int, int]]:
        if self._columns is None:
            self._build()
        return self._columns

    def __len__(self) -> int:
        if self._columns is None:
            self._build()
        return self._nnz

    def __iter__(self):
        for j, col in enumerate(self.columns):
            for i in col:
                yield (i, j)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        columns = self.columns
        if not 0 <= j < len(columns):
            raise KeyError(key)
        return columns[j][i]

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _unit_reduce(
    mat: Matrix, skip: Container[int]
) -> tuple[list[int], list[list[int]]]:
    """Eliminate +-1 pivots by left-looking column reduction, ignoring the
    columns in ``skip``; returns the pivot rows, in pivot order, and the
    dense residual (remaining rows, sorted, by remaining columns).

    Each column not in ``skip`` is read once, in stored order, as a copy.
    While its largest row p is a pivot row, p's stored column times the
    entry is subtracted; a pivot column is kept scaled to +1 at p, with
    every other entry in a smaller row, so each step is exact and clears
    p. A column whose largest row then holds +-1 is stored as the pivot
    of that row; any other nonzero column goes to the residual. Last,
    each residual column is cleared of every pivot row, largest first.
    The largest row of a column is found by one scan. Only when it is a
    pivot row do the column's rows go on a max-heap, so a reduction step
    costs O(|pivot column|) dict updates and heap pushes, not a scan of
    the column, and no row table is kept; a residual column gets its heap
    for the clearing. Heaps, before -> after: one per column -> one per
    column that needs a reduction step or a clearing; a nerve column that
    is a pivot at once costs one scan of its n + 1 rows. Pivots are
    chosen by row index alone, so the result does not depend on the hash
    seed. Columns come from the stored columns of a matrix from
    ``chain_complex`` (``mat.columns``, built on this first read); a plain
    dict is grouped by column first, columns ascending.
    """
    if isinstance(mat, _Columns):
        columns = enumerate(mat.columns)
    else:
        by_col: dict[int, dict[int, int]] = {}
        for (i, j), v in mat.items():
            if v:
                by_col.setdefault(j, {})[i] = v
        columns = sorted(by_col.items())
    below: dict[int, dict[int, int]] = {}  # pivot row -> its column's rest
    pivots = []
    rest = []
    for j, column in columns:
        if not column or j in skip:
            continue
        col = dict(column)
        low = max(col)
        if low in below:
            heap = _heap(col)
            while low in below:
                _subtract(col, col.pop(low), below[low], heap)
                low = _pop_low(col, heap)
            if low is None:
                continue
        v = col[low]
        if v == 1 or v == -1:
            del col[low]
            below[low] = col if v == 1 else {i: -u for i, u in col.items()}
            pivots.append(low)
        else:
            rest.append(col)
    for col in rest:
        # pivot p adds only into rows below p, so once the heap has passed
        # a row, no subtraction reaches it again
        heap = _heap(col)
        while (p := _pop_low(col, heap)) is not None:
            if p in below:
                _subtract(col, col.pop(p), below[p], heap)
    rest = [col for col in rest if col]
    row_pos = {i: r for r, i in enumerate(sorted({i for col in rest for i in col}))}
    residual = [[0] * len(rest) for _ in row_pos]
    for c, col in enumerate(rest):
        for i, v in col.items():
            residual[row_pos[i]][c] = v
    return pivots, residual


def _heap(col: dict[int, int]) -> list[int]:
    """A max-heap of the rows of col, as negated rows."""
    heap = [-i for i in col]
    heapify(heap)
    return heap


def _pop_low(col: dict[int, int], heap: list[int]) -> int | None:
    """Pop the largest row of col from heap, a heap of negated rows that
    may also hold rows no longer in col; None once col has no row left
    on the heap."""
    while heap:
        i = -heappop(heap)
        if i in col:
            return i
    return None


def _subtract(
    col: dict[int, int], f: int, tail: Mapping[int, int], heap: list[int]
) -> None:
    """col -= f * tail, in place, dropping entries that become zero; each
    row new to col is pushed onto heap."""
    for i, u in tail.items():
        w = col.get(i)
        if w is None:
            col[i] = -f * u
            heappush(heap, -i)
        elif w != f * u:
            col[i] = w - f * u
        else:
            del col[i]


def _dense_snf(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form; entries positive, each dividing
    the next."""
    M = [row[:] for row in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    diag: list[int] = []
    s = 0
    while s < m and s < n:
        pi = pj = -1
        pv = 0
        for i in range(s, m):
            for j in range(s, n):
                v = abs(M[i][j])
                if v and (pv == 0 or v < pv):
                    pi, pj, pv = i, j, v
        if pv == 0:
            break
        M[s], M[pi] = M[pi], M[s]
        if pj != s:
            for row in M:
                row[s], row[pj] = row[pj], row[s]
        p = M[s][s]
        dirty = False
        for i in range(s + 1, m):
            if M[i][s]:
                q = M[i][s] // p
                if q:
                    for j in range(s, n):
                        M[i][j] -= q * M[s][j]
                if M[i][s]:
                    dirty = True
        if dirty:
            continue
        for j in range(s + 1, n):
            if M[s][j]:
                q = M[s][j] // p
                if q:
                    for i in range(s, m):
                        M[i][j] -= q * M[i][s]
                if M[s][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(s + 1, m):
            for j in range(s + 1, n):
                if M[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(s, n):
                M[s][j] += M[offender][j]
            continue
        diag.append(abs(p))
        s += 1
    return diag


def snf_diagonal(mat: Matrix) -> list[int]:
    """Invariant factors of an integer matrix, each dividing the next."""
    pivots, residual = _unit_reduce(mat, ())
    return [1] * len(pivots) + _dense_snf(residual)


def integer_rank(mat: Matrix) -> int:
    pivots, residual = _unit_reduce(mat, ())
    return len(pivots) + _rank(residual)


def homology(cc: ChainComplex, rank_only: bool = False) -> HomologyResult:
    """Integral homology from Smith normal forms of the boundary maps.

    The maps are reduced from the top down, d_top first. The n-cells that
    were unit-pivot rows of d_{n+1} are cleared: their columns of d_n are
    never read. Each such pivot column is a boundary, so removing the
    column of its row changes no rank and no invariant factor of d_n (the
    module docstring gives the argument); this needs d_n . d_{n+1} = 0,
    which ``chain_complex`` verifies and a hand-built ``ChainComplex``
    must satisfy. The reduction of d_n then reads about rank d_n + beta_n
    columns plus the non-unit part, instead of all |C_n| = rank d_n +
    rank d_{n+1} + beta_n. A plain-dict map with an entry outside its
    shape (a row or column that is not a cell) raises ValueError naming
    the map and the index. A negative Betti number, that is rank d_n +
    rank d_{n+1} > |C_n|, raises RuntimeError: it is what a complex with
    d . d != 0 or a wrong clearing can give.

    With rank_only=True, torsion is skipped and ranks are computed over
    the rationals (after unit-pivot elimination).
    """
    _check_shape(cc)
    top = len(cc.shape) - 1
    ranks = [0] * (top + 2)  # ranks[n] = rank d_n; d_0 = 0
    torsion: list[tuple[int, ...]] = [()] * (top + 1)
    cleared: set[int] = set()
    for n in range(top + 1, 0, -1):
        pivots, residual = _unit_reduce(cc.boundary(n), cleared)
        if rank_only:
            ranks[n] = len(pivots) + _rank(residual)
        else:
            diag = _dense_snf(residual)
            ranks[n] = len(pivots) + len(diag)
            torsion[n - 1] = tuple(d for d in diag if d > 1)
        cleared = set(pivots)
    betti = tuple(cc.shape[n] - ranks[n] - ranks[n + 1] for n in range(top + 1))
    for n, b in enumerate(betti):
        if b < 0:
            raise RuntimeError(
                f"negative Betti number {b} in dimension {n}: "
                "the boundary maps do not compose to zero"
            )
    return HomologyResult(betti, tuple(torsion))


def _check_shape(cc: ChainComplex) -> None:
    """Raise ValueError at the first entry of a plain-dict boundary map
    whose row or column is not a cell of the dimension it indexes. The
    ``_Columns`` that ``chain_complex`` builds fit by construction and are
    not read."""
    shape = cc.shape
    for n, mat in enumerate(cc.boundaries, start=1):
        if isinstance(mat, _Columns):
            continue
        rows = shape[n - 1] if n - 1 < len(shape) else 0
        cols = shape[n] if n < len(shape) else 0
        for i, j in mat:
            if not 0 <= i < rows:
                raise ValueError(
                    f"d_{n} has an entry in row {i}, but |C_{n - 1}| = {rows}"
                )
            if not 0 <= j < cols:
                raise ValueError(
                    f"d_{n} has an entry in column {j}, but |C_{n}| = {cols}"
                )
