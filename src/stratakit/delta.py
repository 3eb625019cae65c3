"""Delta complexes: cells with face maps, no degeneracies.

Cells in dimension n carry opaque keys (chains, sign vectors, ...) for
readability; face maps are stored positionally as index tuples into the
dimension below. ``_identity_failures`` is the one check of the defining
identities d_i d_j = d_{j-1} d_i (i < j), behind both ``validate_delta``
and ``homology.chain_complex``. ``_nerve`` is the one kernel that grows
a nerve: the nondegenerate nerve of a category and the order complex of
a poset (the nerve of the poset as a thin category) in
``category.nondegenerate_nerve`` and ``poset.order_complex``, and with
the first the nerves of the comma categories behind the stars and links.
``_face_pairs`` is the one list of (face, cell) pairs, for ``face_poset``
and ``category.sd_category``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

__all__ = [
    "DeltaComplex",
    "validate_delta",
    "f_vector",
    "euler_characteristic",
    "components",
    "face_poset",
]


@dataclass(frozen=True)
class DeltaComplex:
    """cells[n] lists the n-cell keys; faces[n-1][c] = (d_0(c), ..., d_n(c))."""

    cells: tuple[tuple[Hashable, ...], ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if len(self.faces) != max(len(self.cells) - 1, 0):
            raise ValueError("faces must cover dimensions 1..top")

    def dim(self) -> int:
        return len(self.cells) - 1

    def size(self, n: int) -> int:
        if 0 <= n < len(self.cells):
            return len(self.cells[n])
        return 0

    def face(self, n: int, cell: int, i: int) -> int:
        """Index of d_i of the given n-cell, n >= 1."""
        return self.faces[n - 1][cell][i]


def validate_delta(k: DeltaComplex) -> list[str]:
    """Check index ranges and the simplicial identities; empty iff valid."""
    problems = []
    for n in range(1, k.dim() + 1):
        if len(k.faces[n - 1]) != k.size(n):
            problems.append(f"dimension {n}: face table size mismatch")
            continue
        for c, row in enumerate(k.faces[n - 1]):
            if len(row) != n + 1:
                problems.append(f"{n}-cell {c}: expected {n + 1} faces")
                continue
            for i, f in enumerate(row):
                # 2.0 is an integer to a JSON schema, but no index
                if type(f) is not int:
                    problems.append(f"{n}-cell {c}: face d_{i} is not an int")
                elif not 0 <= f < k.size(n - 1):
                    problems.append(f"{n}-cell {c}: face d_{i} out of range")
    if problems:
        return problems
    for n in range(2, k.dim() + 1):
        for c, j, i in _identity_failures(k, n):
            problems.append(f"{n}-cell {c}: d_{i} d_{j} != d_{j - 1} d_{i}")
    return problems


def _identity_failures(k: DeltaComplex, n: int) -> list | None:
    """Sorted (c, j, i) with d_i d_j c != d_{j-1} d_i c, i < j, compared
    on the transposed face tables. None when a table's length is not its
    cell count, a row is short or an index too large."""
    faces = k.faces[n - 1]
    if len(faces) != k.size(n):
        return None
    if n == 1 or not faces:
        return []
    lower = k.faces[n - 2]
    if len(lower) != k.size(n - 1):
        return None
    # zip truncates to the shortest row: a short row leaves too few columns
    d = list(zip(*faces))
    low = list(zip(*lower))
    failures = []
    try:
        for j in range(1, n + 1):
            for i in range(j):
                lhs = list(map(low[i].__getitem__, d[j]))
                rhs = list(map(low[j - 1].__getitem__, d[i]))
                if lhs != rhs:
                    failures += [
                        (c, j, i) for c, a in enumerate(lhs) if a != rhs[c]
                    ]
    except (IndexError, TypeError):
        return None
    return sorted(failures)


def _nerve(vertices, layer, keys, rows, after, m: int) -> DeltaComplex:
    """The nerve grown from its vertices and 1-chains, one layer per
    dimension, each face of a chain found from its parent.

    A chain is a tuple of letters numbered 0..m-1, and its key is (index
    of its parent) * m + (number of its last letter), the parent of a
    1-chain being its face d_1. ``layer`` lists the 1-chains, ``rows``
    their faces (d_0, d_1) as vertex indices, and ``keys`` their keys.
    ``after[k]`` lists a triple (y, number of y, number of y . k) for each
    letter y that may follow letter k. The chain a + (y,) of dimension n
    has d_n = a, d_i = d_i(a) + (y,) for i < n - 1 and d_{n-1} =
    d_{n-1}(a) + (y . last(a),), each looked up by its key; in a poset,
    y . x is y. Chains keep the order of their parents, then of
    ``after``. Cost: n int-keyed lookups per n-chain.
    """
    cells: list[tuple[Hashable, ...]] = [tuple(vertices)]
    faces = []
    while layer:
        cells.append(tuple(layer))
        faces.append(tuple(rows))
        # one int object per chain, shared by the index and the rows
        ids = list(range(len(layer)))
        index = dict(zip(keys, ids))
        exts = [after[key % m] for key in keys]
        rows = [
            tuple([index[d * m + k] for d in up[:-1]]) + (index[up[-1] * m + c], j)
            for j, up, ext in zip(ids, rows, exts)
            for _, k, c in ext
        ]
        del index  # before the chains are grown: the largest transient
        keys = [j * m + k for j, ext in zip(ids, exts) for _, k, _ in ext]
        layer = [a + (y,) for a, ext in zip(layer, exts) for y, _, _ in ext]
    return DeltaComplex(tuple(cells), tuple(faces))


def f_vector(k: DeltaComplex) -> tuple[int, ...]:
    return tuple(len(layer) for layer in k.cells)


def euler_characteristic(k: DeltaComplex) -> int:
    return sum((-1) ** n * len(layer) for n, layer in enumerate(k.cells))


def components(k: DeltaComplex) -> int:
    """Connected components of the 1-skeleton."""
    n0 = k.size(0)
    parent = list(range(n0))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in range(k.size(1)):
        a, b = find(k.face(1, c, 0)), find(k.face(1, c, 1))
        if a != b:
            parent[a] = b
    return len({find(i) for i in range(n0)})


def face_poset(k: DeltaComplex):
    """Poset of all cells ordered by iterated faces, graded by dimension.

    For the barycentric subdivision of a totally normal space this is the
    face poset of a regular complex; elements are densely renumbered
    (``_face_pairs``) and labeled (dim, key). Grades rise by one along
    each face, so every (face, cell) pair is a cover.
    """
    from .poset import Poset

    cells = [(n, key) for n, layer in enumerate(k.cells) for key in layer]
    labels = dict(enumerate(cells))
    grades = {i: n for i, (n, _) in labels.items()}
    covers = tuple(sorted(set(_face_pairs(k))))
    return Poset(tuple(labels), covers, grades, labels)


def _face_pairs(k: DeltaComplex) -> list[tuple[int, int]]:
    """Each (face, cell) pair of k, the cells numbered densely one
    dimension after another, in cell order and then face order; a face
    met twice in a row is listed twice."""
    pairs: list[tuple[int, int]] = []
    start = 0
    for below, rows in zip(k.cells, k.faces):
        top = start + len(below)
        pairs += [(start + f, j) for j, row in enumerate(rows, top) for f in row]
        start = top
    return pairs
