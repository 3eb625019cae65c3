"""Configuration spaces of graphs.

The direct model stratifies Conf_k(graph) by which cell of the graph each
coordinate occupies, refined within every group of coordinates sharing an
edge by a strict linear order (the chambers of the braid arrangement
restricted to that edge; all tie strata lie in the removed diagonal).
Morphisms are specializations: a choice of edge coordinates and an end
per choice, where within a group only the order-minimum may move to the
0-end and only the order-maximum to the 1-end, subject to the resulting
vertex occupancies staying pairwise distinct. Composition is union of
specializations, which makes coinciding composite paths coincide as
morphisms.

The Abrams discretized model (tuples of closed graph cells with pairwise
disjoint closures) is built independently as an oracle; it is
homotopy-correct once essential paths and cycles of the graph are longer
than k, which a checker reports on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations, product as iproduct
from typing import Hashable

from .category import AcyclicCategory, GroupActionOnCategory, _composable_pairs
from .css import CombinatorialCSS, make_css, poset_to_css, quotient_css
from .poset import Poset

__all__ = [
    "Graph",
    "ConfCell",
    "validate_graph",
    "subdivide_graph",
    "graph_to_css",
    "conf_category",
    "sigma_action",
    "unordered_conf",
    "abrams_complex",
    "abrams_conditions",
    "edge_graph",
    "loop_graph",
    "y_graph",
    "k5_graph",
    "cycle_graph",
    "path_graph",
    "GRAPH_FIXTURES",
    "graph_fixture",
]


@dataclass(frozen=True)
class Graph:
    """Vertices and edges with ordered endpoints (0-end, 1-end).

    Loops and multi-edges are allowed."""

    vertices: tuple[Hashable, ...]
    edges: tuple[tuple[Hashable, tuple[Hashable, Hashable]], ...]


def validate_graph(g: Graph) -> list[str]:
    problems = []
    if len(set(g.vertices)) != len(g.vertices):
        problems.append("duplicate vertex ids")
    if len({e for e, _ in g.edges}) != len(g.edges):
        problems.append("duplicate edge ids")
    vs = set(g.vertices)
    for e, (a, b) in g.edges:
        if a not in vs or b not in vs:
            problems.append(f"edge {e!r} references unknown vertex")
    return problems


def subdivide_graph(g: Graph, n: int) -> Graph:
    """Replace each edge by a path of n edges; loops become n-cycles."""
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    bad = validate_graph(g)
    if bad:
        raise ValueError("; ".join(bad))
    if n == 1:
        return g
    vertices = list(g.vertices)
    edges = []
    for e, (a, b) in g.edges:
        stops = [a]
        for i in range(1, n):
            w = (e, "sub", i)
            vertices.append(w)
            stops.append(w)
        stops.append(b)
        for i in range(n):
            edges.append(((e, "seg", i), (stops[i], stops[i + 1])))
    return Graph(tuple(vertices), tuple(edges))


def graph_to_css(g: Graph) -> CombinatorialCSS:
    """A graph as a stratified space: one lift per end of each edge, two
    for a loop."""
    bad = validate_graph(g)
    if bad:
        raise ValueError("; ".join(bad))
    objects = [("v", v) for v in g.vertices] + [("e", e) for e, _ in g.edges]
    mids = []
    src = {}
    dst = {}
    for e, ends in g.edges:
        for end in (0, 1):
            m = ("end", e, end)
            mids.append(m)
            src[m], dst[m] = ("v", ends[end]), ("e", e)
    grades = {("v", v): 0 for v in g.vertices}
    grades.update({("e", e): 1 for e, _ in g.edges})
    c = AcyclicCategory(
        tuple(objects), tuple(mids), src, dst, {}, grades
    )
    return make_css(c, {x: True for x in objects})


@dataclass(frozen=True)
class ConfCell:
    """A stratum of the configuration model.

    labeling[i] is ("v", vertex) or ("e", edge); orders lists, per edge
    carrying at least one coordinate, the coordinates in increasing
    position along the edge (0-end lowest).

    The hash, the dataclass's hash((labeling, orders)), is computed once:
    every morphism id holds a cell, and id lookups dominate construction."""

    labeling: tuple
    orders: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.labeling, self.orders)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return (ConfCell, (self.labeling, self.orders))

    def dim(self) -> int:
        return sum(1 for kind, _ in self.labeling if kind == "e")


def _conf_cells(g: Graph, k: int) -> list[ConfCell]:
    edge_index = {e: i for i, (e, _) in enumerate(g.edges)}
    options = [("v", v) for v in g.vertices] + [("e", e) for e, _ in g.edges]
    cells = []
    for labeling in iproduct(options, repeat=k):
        occupied = [val for kind, val in labeling if kind == "v"]
        if len(set(occupied)) != len(occupied):
            continue
        groups: dict[Hashable, list[int]] = {}
        for coord, (kind, val) in enumerate(labeling):
            if kind == "e":
                groups.setdefault(val, []).append(coord)
        keys = sorted(groups, key=edge_index.__getitem__)
        for arranged in iproduct(*[permutations(groups[e]) for e in keys]):
            orders = tuple(
                (e, tuple(order)) for e, order in zip(keys, arranged)
            )
            cells.append(ConfCell(labeling, orders))
    return cells


def _group_picks(order: tuple[int, ...]):
    """Admissible specializations within one edge group: only the
    order-minimum may take the 0-end, only the order-maximum the 1-end."""
    picks = [()]
    picks.append(((order[0], 0),))
    picks.append(((order[-1], 1),))
    if len(order) >= 2:
        picks.append(((order[0], 0), (order[-1], 1)))
    return picks


def _specialize(ends: dict, cell: ConfCell, spec) -> ConfCell | None:
    """Apply a specialization; None when vertex occupancies collide.
    ``ends`` maps each edge id to its (0-end, 1-end)."""
    labeling = list(cell.labeling)
    removed = set()
    for coord, end in spec:
        eid = cell.labeling[coord][1]
        labeling[coord] = ("v", ends[eid][end])
        removed.add(coord)
    occupied = [val for kind, val in labeling if kind == "v"]
    if len(set(occupied)) != len(occupied):
        return None
    orders = []
    for e, order in cell.orders:
        rest = tuple(c for c in order if c not in removed)
        if rest:
            orders.append((e, rest))
    return ConfCell(tuple(labeling), tuple(orders))


def conf_category(g: Graph, k: int) -> CombinatorialCSS:
    """The braid-refined product stratification restricted to Conf_k.

    Objects are ConfCells; a morphism per admissible specialization;
    composition is union of specializations.
    """
    if k < 1:
        raise ValueError("need at least one moving point")
    bad = validate_graph(g)
    if bad:
        raise ValueError("; ".join(bad))
    cells = _conf_cells(g, k)
    # one instance per cell, so lookups keyed by cells or ids match by
    # identity instead of ConfCell.__eq__; a cell outside the model raises
    stored = {cell: cell for cell in cells}
    ends = dict(g.edges)
    mids = []
    src = {}
    dst = {}
    for cell in cells:
        if not cell.orders:
            continue
        for combo in iproduct(
            *[_group_picks(order) for _, order in cell.orders]
        ):
            spec = tuple(sorted(p for group in combo for p in group))
            if not spec:
                continue
            result = _specialize(ends, cell, spec)
            if result is None:
                continue
            result = stored[result]
            m = (cell, spec)
            mids.append(m)
            src[m], dst[m] = result, cell
    comp = {}
    stored_mids = {m: m for m in mids}
    for f, b in _composable_pairs(mids, src, dst):
        comp[(b, f)] = stored_mids[(b[0], tuple(sorted(b[1] + f[1])))]
    grades = {cell: cell.dim() for cell in cells}
    cat = AcyclicCategory(
        tuple(cells), tuple(mids), src, dst, comp, grades
    )
    return make_css(cat)


def _permute_cell(cell: ConfCell, perm: dict[int, int]) -> ConfCell:
    labeling = [None] * len(cell.labeling)
    for i, val in enumerate(cell.labeling):
        labeling[perm[i]] = val
    orders = tuple(
        (e, tuple(perm[c] for c in order)) for e, order in cell.orders
    )
    return ConfCell(tuple(labeling), orders)


def sigma_action(css: CombinatorialCSS, k: int) -> GroupActionOnCategory:
    """The coordinate-permutation action on a configuration category,
    generated by adjacent transpositions. Free: strict orders and
    distinct vertex occupancies forbid fixed cells. Images are the stored
    cells and morphism ids themselves."""
    stored = {cell: cell for cell in css.cat.objects}
    stored_mids = {m: m for m in css.cat.morphisms}
    gens = []
    for i in range(k - 1):
        perm = {j: j for j in range(k)}
        perm[i], perm[i + 1] = i + 1, i
        omap = {
            cell: stored[_permute_cell(cell, perm)] for cell in css.cat.objects
        }
        mmap = {}
        for m in css.cat.morphisms:
            cell, spec = m
            mmap[m] = stored_mids[
                (omap[cell], tuple(sorted((perm[c], end) for c, end in spec)))
            ]
        gens.append((omap, mmap))
    return GroupActionOnCategory(css.cat, tuple(gens))


def unordered_conf(g: Graph, k: int) -> CombinatorialCSS:
    """Orbit model of the unordered configuration space."""
    ordered = conf_category(g, k)
    return quotient_css(ordered, sigma_action(ordered, k))


def abrams_complex(g: Graph, k: int, subdivisions: int = 1) -> CombinatorialCSS:
    """Abrams' discretized configuration space (ordered variant): tuples
    of closed graph cells with pairwise disjoint closures.

    The graph is subdivided first; the caller is responsible for the
    length hypotheses (see abrams_conditions). A regular complex with all
    cells closed.
    """
    if k < 1:
        raise ValueError("need at least one moving point")
    gs = subdivide_graph(g, subdivisions)
    closures = {("v", v): frozenset([v]) for v in gs.vertices}
    for e, (a, b) in gs.edges:
        closures[("e", e)] = frozenset([("edge", e), a, b])
    items = list(closures)
    cells = []
    for tup in iproduct(items, repeat=k):
        sets = [closures[c] for c in tup]
        union = frozenset().union(*sets)
        if len(union) == sum(len(s) for s in sets):
            cells.append(tup)
    index = {c: i for i, c in enumerate(cells)}
    ends = {e: en for e, en in gs.edges}

    def faces(tup):
        axes = []
        for kind, val in tup:
            if kind == "v":
                axes.append([("v", val)])
            else:
                axes.append([("e", val), ("v", ends[val][0]), ("v", ends[val][1])])
        for candidate in iproduct(*axes):
            if candidate != tup and candidate in index:
                yield candidate

    less = []
    for tup in cells:
        for f in faces(tup):
            less.append((index[f], index[tup]))
    grades = {
        index[tup]: sum(1 for kind, _ in tup if kind == "e") for tup in cells
    }
    labels = {index[tup]: tup for tup in cells}
    p = Poset.from_relation(range(len(cells)), less, grades, labels)
    return poset_to_css(p, closed={lab: True for lab in labels.values()})


def abrams_conditions(g: Graph, k: int) -> list[str]:
    """Report violations of the discretization hypotheses: essential
    paths and essential cycles must have length at least k+1."""
    bad = validate_graph(g)
    if bad:
        return bad
    adjacency: dict[Hashable, list[tuple[Hashable, Hashable]]] = {
        v: [] for v in g.vertices
    }
    for e, (a, b) in g.edges:
        adjacency[a].append((e, b))
        adjacency[b].append((e, a))
    degree = {v: len(adjacency[v]) for v in g.vertices}
    problems = []

    # essential paths: maximal chains through degree-2 vertices whose
    # endpoints both have valence > 2; walked from the essential vertices
    # in vertex order, so the messages do not depend on the hash seed
    essential = {v for v in g.vertices if degree[v] != 2}
    seen_edges = set()
    for start in (v for v in g.vertices if v in essential):
        for e0, nxt in adjacency[start]:
            if e0 in seen_edges:
                continue
            length = 1
            prev, cur = start, nxt
            walk = {e0}
            while cur not in essential and cur != start:
                step = next(
                    (ed, w) for ed, w in adjacency[cur] if ed not in walk
                )
                walk.add(step[0])
                prev, cur = cur, step[1]
                length += 1
            seen_edges |= walk
            if (
                cur in essential
                and degree[start] > 2
                and degree[cur] > 2
                and length <= k
            ):
                problems.append(
                    f"path of length {length} between essential vertices "
                    f"{start!r} and {cur!r} (need >= {k + 1})"
                )

    girth = _girth(g, adjacency)
    if girth is not None and girth <= k:
        problems.append(f"essential cycle of length {girth} (need >= {k + 1})")
    return problems


def _girth(g: Graph, adjacency: dict) -> int | None:
    """Length of a shortest cycle of g, None if it has none: 1 for a
    loop, else for each edge (a, b) one plus the length of a shortest a-b
    path that avoids it, by BFS over ``adjacency`` (vertex -> (edge,
    other end) pairs). Cost O(|E| (|V| + |E|))."""
    best = None
    for e, (a, b) in g.edges:
        if a == b:
            return 1
        dist = {a: 0}
        queue = deque([a])
        while queue and b not in dist:
            cur = queue.popleft()
            for e2, w in adjacency[cur]:
                if e2 != e and w not in dist:
                    dist[w] = dist[cur] + 1
                    queue.append(w)
        if b in dist and (best is None or dist[b] + 1 < best):
            best = dist[b] + 1
    return best


def edge_graph() -> Graph:
    return Graph(("a", "b"), (("e", ("a", "b")),))


def loop_graph() -> Graph:
    return Graph(("v",), (("e", ("v", "v")),))


def y_graph() -> Graph:
    return Graph(
        ("hub", "t1", "t2", "t3"),
        (
            ("a", ("hub", "t1")),
            ("b", ("hub", "t2")),
            ("c", ("hub", "t3")),
        ),
    )


def k5_graph() -> Graph:
    vertices = tuple(range(5))
    edges = tuple(
        ((i, j), (i, j)) for i in range(5) for j in range(i + 1, 5)
    )
    return Graph(vertices, edges)


def cycle_graph(n: int) -> Graph:
    vertices = tuple(range(n))
    edges = tuple(((i, (i + 1) % n), (i, (i + 1) % n)) for i in range(n))
    return Graph(vertices, edges)


def path_graph(n: int) -> Graph:
    """A path with n edges."""
    vertices = tuple(range(n + 1))
    edges = tuple(((i, i + 1), (i, i + 1)) for i in range(n))
    return Graph(vertices, edges)


GRAPH_FIXTURES = {
    "edge": edge_graph,
    "loop": loop_graph,
    "y": y_graph,
    "k5": k5_graph,
}


def graph_fixture(name: str) -> Graph:
    try:
        return GRAPH_FIXTURES[name]()
    except KeyError:
        raise KeyError(
            f"unknown graph fixture {name!r}; available: {sorted(GRAPH_FIXTURES)}"
        ) from None
