"""Integer chain complexes and exact homology via Smith normal form.

Boundary matrices use the alternating-sum convention d = sum_i (-1)^i d_i
with d_i deleting the i-th chain entry, so exports are reproducible
bit-for-bit. All arithmetic is arbitrary-precision: SNF pivots blow up
quickly on complexes with a few hundred cells.

The SNF pipeline eliminates +-1 pivots on a sparse representation first
(nerve boundary matrices are sparse with unit entries, and this typically
removes well over 90% of the cells), then runs a dense SNF on the small
residue. A rank-only mode over the rationals is available for fast Betti
numbers; torsion mode is the default.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .delta import DeltaComplex, f_vector
from .lp import _rank

__all__ = [
    "ChainComplex",
    "HomologyResult",
    "chain_complex",
    "homology",
    "snf_diagonal",
    "integer_rank",
]

Matrix = dict[tuple[int, int], int]


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices; shape[n] counts n-chains.

    boundaries[n] is the matrix of d_{n+1}: C_{n+1} -> C_n as a sparse
    {(row, col): value} map, rows indexed by n-chains.
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
    """Boundary matrices of a Delta complex, with d.d = 0 verified."""
    mats = []
    for n in range(1, k.dim() + 1):
        mat: Matrix = {}
        for c in range(k.size(n)):
            for i, f in enumerate(k.faces[n - 1][c]):
                key = (f, c)
                v = mat.get(key, 0) + (-1) ** i
                if v:
                    mat[key] = v
                elif key in mat:
                    del mat[key]
        mats.append(mat)
    cc = ChainComplex(f_vector(k), tuple(mats))
    for n in range(2, len(cc.shape)):
        if not _is_zero_product(cc.boundary(n - 1), cc.boundary(n)):
            raise ValueError(f"boundary squared is nonzero in dimension {n}")
    return cc


def _is_zero_product(a: Matrix, b: Matrix) -> bool:
    a_rows: dict[int, list[tuple[int, int]]] = {}
    for (i, j), v in a.items():
        a_rows.setdefault(j, []).append((i, v))
    prod: Matrix = {}
    for (j, col), v in b.items():
        for i, w in a_rows.get(j, ()):
            key = (i, col)
            nv = prod.get(key, 0) + v * w
            if nv:
                prod[key] = nv
            elif key in prod:
                del prod[key]
    return not prod


class _SparseMatrix:
    """Mutable sparse integer matrix supporting unit-pivot elimination."""

    def __init__(self, mat: Matrix):
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        for (i, j), v in mat.items():
            if v:
                self.rows.setdefault(i, {})[j] = v
                self.cols.setdefault(j, set()).add(i)

    def _set(self, i: int, j: int, v: int):
        if v:
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)
        else:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
                self.cols[j].discard(i)
                if not self.cols[j]:
                    del self.cols[j]

    def eliminate_units(self) -> int:
        """Pivot on +-1 entries, preferring low fill-in; returns pivot count.

        Each unit pivot contributes an invariant factor 1; the remaining
        matrix has the same further invariant factors.
        """
        heap: list[tuple[int, int, int]] = []
        for i, row in self.rows.items():
            for j, v in row.items():
                if v in (1, -1):
                    score = (len(row) - 1) * (len(self.cols[j]) - 1)
                    heap.append((score, i, j))
        heapq.heapify(heap)
        count = 0
        while heap:
            score, i, j = heapq.heappop(heap)
            v = self.rows.get(i, {}).get(j, 0)
            if v not in (1, -1):
                continue
            cur = (len(self.rows[i]) - 1) * (len(self.cols[j]) - 1)
            if cur > score:
                heapq.heappush(heap, (cur, i, j))
                continue
            pivot_row = dict(self.rows[i])
            for i2 in list(self.cols[j]):
                if i2 == i:
                    continue
                w = self.rows[i2][j]
                factor = w * v  # w / v since v is a unit
                for j2, u in pivot_row.items():
                    nv = self.rows.get(i2, {}).get(j2, 0) - factor * u
                    self._set(i2, j2, nv)
                    if nv in (1, -1):
                        r2 = self.rows.get(i2, {})
                        heapq.heappush(
                            heap,
                            (
                                (len(r2) - 1) * (len(self.cols[j2]) - 1),
                                i2,
                                j2,
                            ),
                        )
            for j2 in list(pivot_row):
                self._set(i, j2, 0)
            count += 1
        return count

    def dense_residual(self) -> list[list[int]]:
        row_ids = sorted(self.rows)
        col_ids = sorted(self.cols)
        col_pos = {j: c for c, j in enumerate(col_ids)}
        out = [[0] * len(col_ids) for _ in row_ids]
        for r, i in enumerate(row_ids):
            for j, v in self.rows[i].items():
                out[r][col_pos[j]] = v
        return out


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
    sparse = _SparseMatrix(mat)
    units = sparse.eliminate_units()
    return [1] * units + _dense_snf(sparse.dense_residual())


def integer_rank(mat: Matrix) -> int:
    sparse = _SparseMatrix(mat)
    units = sparse.eliminate_units()
    return units + _rank(sparse.dense_residual())


def homology(cc: ChainComplex, rank_only: bool = False) -> HomologyResult:
    """Integral homology from Smith normal forms of the boundary maps.

    With rank_only=True, torsion is skipped and ranks are computed over
    the rationals (after unit-pivot elimination).
    """
    top = len(cc.shape) - 1
    ranks = []
    torsions = []
    for n in range(1, top + 2):
        mat = cc.boundary(n)
        if rank_only:
            ranks.append(integer_rank(mat))
            torsions.append(())
        else:
            diag = snf_diagonal(mat)
            ranks.append(len(diag))
            torsions.append(tuple(d for d in diag if d > 1))
    betti = []
    torsion = []
    for n in range(top + 1):
        rank_in = ranks[n - 1] if n >= 1 else 0
        betti.append(cc.shape[n] - rank_in - ranks[n])
        torsion.append(torsions[n])
    return HomologyResult(tuple(betti), tuple(torsion))
