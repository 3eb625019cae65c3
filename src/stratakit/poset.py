"""Finite graded posets.

A poset is stored by its covering pairs; the full order relation is
materialized on demand via transitive closure and cached on the instance.
Elements are integer ids. Grades are optional and, where present, must
strictly increase along covers; operations that need grades fail fast
rather than inferring them.

Each order-theoretic primitive exists once here: ``_strict_down`` is
the only topological sort and transitive closure (Kahn's algorithm,
accumulating down-sets as it goes, ValueError on a cycle), and
``_chain_layers`` the only chain enumerator (chains grown one layer at a
time from a table of successors). ``Poset``, ``validate_poset``,
``order_complex``, and the nerve and ``sd_category`` in ``category``,
are built on them; ``_strict_down`` is also the cycle check of
``validate_category``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .delta import DeltaComplex

__all__ = [
    "Poset",
    "validate_poset",
    "opposite",
    "product",
    "order_complex",
    "are_isomorphic",
]


@dataclass(frozen=True)
class Poset:
    """A finite poset given by elements and covering pairs.

    ``grades`` maps a subset of the elements to integers; ``labels`` is a
    side table of human-readable names and never affects the order.
    """

    elements: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    grades: dict[int, int] = field(default_factory=dict)
    labels: dict[int, Hashable] = field(default_factory=dict)

    @classmethod
    def from_relation(
        cls,
        elements: Iterable[int],
        less: Iterable[tuple[int, int]],
        grades: Mapping[int, int] | None = None,
        labels: Mapping[int, Hashable] | None = None,
    ) -> "Poset":
        """Build a poset from an arbitrary strict-order relation.

        The relation is transitively closed and then reduced to its
        covering pairs, so callers may pass any generating set of pairs.
        The closure is also the covers' closure, so it becomes the cached
        ``_down``, and the poset is marked ``_order_valid``: its covers
        name known elements, are irreflexive, acyclic and no transitive
        shortcut, so ``validate_poset`` checks only its grades (which
        are taken as given). With repeated elements both are left to
        ``validate_poset``.
        """
        elems = tuple(elements)
        down = _strict_down(elems, less)
        covers = []
        for hi in elems:
            below = down[hi]
            if below:
                shadow = set().union(*map(down.__getitem__, below))
                covers.extend((lo, hi) for lo in below - shadow)
        p = cls(
            elems,
            tuple(sorted(covers, key=repr)),
            dict(grades) if grades else {},
            dict(labels) if labels else {},
        )
        if len(down) == len(elems):
            p.__dict__["_down"] = {e: frozenset(s) for e, s in down.items()}
            p.__dict__["_order_valid"] = True
        return p

    @cached_property
    def _down(self) -> dict[int, frozenset[int]]:
        """Strict down-set of each element (transitive closure of covers)."""
        down = _strict_down(self.elements, self.covers)
        return {e: frozenset(s) for e, s in down.items()}

    @cached_property
    def _up(self) -> dict[int, tuple[int, ...]]:
        """Strict up-set of each element, in element order."""
        up: dict[int, list[int]] = {e: [] for e in self.elements}
        for hi in self.elements:
            for lo in self._down[hi]:
                up[lo].append(hi)
        return {e: tuple(v) for e, v in up.items()}

    def less(self, a: int, b: int) -> bool:
        return a in self._down[b]

    def leq(self, a: int, b: int) -> bool:
        return a == b or a in self._down[b]

    def down_set(self, e: int) -> frozenset[int]:
        return self._down[e]

    def comparable_pairs(self) -> list[tuple[int, int]]:
        """All strict pairs (a, b) with a < b."""
        return [(a, b) for b in self.elements for a in self._down[b]]

    def chains(self) -> list[tuple[int, ...]]:
        """All nonempty strictly increasing chains, shortest first."""
        return [c for layer in _chain_layers(self.elements, self._up) for c in layer]

    def height(self) -> int:
        """Length (number of covers) of the longest chain; -1 if empty."""
        return len(_chain_layers(self.elements, self._up)) - 1


def _strict_down(elements, pairs) -> dict:
    """Strict down-sets of the order generated by ``pairs`` (lo, hi).

    Kahn's algorithm: an element leaves the queue once every element
    below it has, and then hands itself and its finished down-set to the
    elements above it, so one pass yields the transitive closure. Raises
    ValueError if the relation has a cycle.
    """
    above: dict = {e: [] for e in elements}
    indeg = dict.fromkeys(elements, 0)
    for lo, hi in pairs:
        above[lo].append(hi)
        indeg[hi] += 1
    down: dict = {e: set() for e in elements}
    queue = [e for e in elements if not indeg[e]]
    done = 0
    while queue:
        e = queue.pop()
        done += 1
        for f in above[e]:
            down[f].add(e)
            down[f] |= down[e]
            indeg[f] -= 1
            if not indeg[f]:
                queue.append(f)
    if done != len(elements):
        raise ValueError("relation contains a cycle")
    return down


def _chain_layers(starts, after) -> list[list[tuple]]:
    """Chains beginning at ``starts``, grouped by length, shortest first.

    ``after[x]`` lists what may follow ``x`` in a chain; within a layer,
    chains keep the order of their prefixes, then of ``after``.
    """
    layers = []
    frontier = [(x,) for x in starts]
    while frontier:
        layers.append(frontier)
        frontier = [chain + (y,) for chain in frontier for y in after[chain[-1]]]
    return layers


def validate_poset(p: Poset) -> list[str]:
    """Diagnostic check of the poset invariants; empty list iff valid.

    A poset that ``from_relation`` marked ``_order_valid`` skips the
    element and cover checks, which cannot fail on it, saving their
    O(sum over covers of |down(hi)|); its grades are checked as any."""
    problems = []
    if not p.__dict__.get("_order_valid"):
        seen = set()
        for e in p.elements:
            if e in seen:
                problems.append(f"duplicate element id {e}")
            seen.add(e)
        for lo, hi in p.covers:
            if lo not in seen or hi not in seen:
                problems.append(f"cover ({lo},{hi}) references unknown element")
                return problems
            if lo == hi:
                problems.append(f"reflexive cover ({lo},{hi})")

        # antisymmetry == acyclicity of the cover digraph
        try:
            down = p._down
        except ValueError:
            problems.append(
                "antisymmetry violation: cover relation contains a cycle"
            )
            return problems
        for lo, hi in p.covers:
            if any(lo in down[mid] for mid in down[hi]):
                problems.append(f"cover ({lo},{hi}) is a transitive shortcut")
    if p.grades:
        missing = [e for e in p.elements if e not in p.grades]
        if missing:
            problems.append(f"partial grading: elements {sorted(missing)} ungraded")
        else:
            for lo, hi in p.covers:
                if p.grades[lo] >= p.grades[hi]:
                    problems.append(
                        f"grade does not increase along cover ({lo},{hi})"
                    )
    return problems


def opposite(p: Poset) -> Poset:
    """Reverse all covers; grades dualize to top_grade - grade.

    Involutive: opposite(opposite(p)) == p element-for-element,
    cover-for-cover, grade-for-grade.
    """
    bad = validate_poset(p)
    if bad:
        raise ValueError("invalid poset: " + "; ".join(bad))
    grades = {}
    if p.grades:
        top = max(p.grades.values())
        grades = {e: top - g for e, g in p.grades.items()}
    return Poset(
        p.elements,
        tuple((hi, lo) for lo, hi in p.covers),
        grades,
        dict(p.labels),
    )


def product(p: Poset, q: Poset) -> Poset:
    """Componentwise order on pairs; grades add when both factors are graded."""
    for side, name in ((p, "first"), (q, "second")):
        bad = validate_poset(side)
        if bad:
            raise ValueError(f"invalid {name} factor: " + "; ".join(bad))
    pairs = [(a, b) for a in p.elements for b in q.elements]
    index = {pair: i for i, pair in enumerate(pairs)}
    covers = [(index[(a, b)], index[(a2, b)]) for a, a2 in p.covers for b in q.elements]
    covers += [(index[(a, b)], index[(a, b2)]) for a in p.elements for b, b2 in q.covers]
    grades = {}
    if (not p.elements or p.grades) and (not q.elements or q.grades):
        for (a, b), i in index.items():
            grades[i] = p.grades[a] + q.grades[b]
    labels = {
        i: (p.labels.get(a, a), q.labels.get(b, b)) for (a, b), i in index.items()
    }
    return Poset(tuple(range(len(pairs))), tuple(sorted(covers)), grades, labels)


def order_complex(p: Poset) -> DeltaComplex:
    """Delta complex whose k-cells are the strictly increasing (k+1)-chains.

    The i-th face deletes the i-th chain entry. Chains grown from sorted
    elements by sorted up-sets come out sorted, one layer per dimension.
    A k-chain a + (y,) has last face a; for i < k its i-th face is
    d_i(a) + (y,), looked up by (index of d_i(a), y). A vertex's one face
    is the empty chain, index -1. Cost O(k) small-key lookups per k-chain.
    """
    bad = validate_poset(p)
    if bad:
        raise ValueError("invalid poset: " + "; ".join(bad))
    up = {e: sorted(v) for e, v in p._up.items()}
    starts = sorted(p.elements)
    by_dim = _chain_layers(starts, up)
    index = {(-1, x): i for i, x in enumerate(starts)}
    faces = [[(-1,)] * len(starts)]
    for n in range(1, len(by_dim)):
        # (parent index, last element) of each n-chain, in layer order
        keys = [(j, y) for j, a in enumerate(by_dim[n - 1]) for y in up[a[-1]]]
        prev = faces[-1]
        layer = [tuple([index[d, y] for d in prev[j]]) + (j,) for j, y in keys]
        faces.append(tuple(layer))
        index = {key: i for i, key in enumerate(keys)}
    return DeltaComplex(tuple(map(tuple, by_dim)), tuple(faces[1:]))


def are_isomorphic(p: Poset, q: Poset) -> bool:
    """Graded-poset isomorphism via digraph matching on Hasse diagrams."""
    import networkx as nx

    if len(p.elements) != len(q.elements) or len(p.covers) != len(q.covers):
        return False

    def digraph(poset: Poset) -> "nx.DiGraph":
        g = nx.DiGraph()
        for e in poset.elements:
            g.add_node(e, grade=poset.grades.get(e))
        g.add_edges_from(poset.covers)
        return g

    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        digraph(p),
        digraph(q),
        node_match=lambda a, b: a["grade"] == b["grade"],
    )
    return matcher.is_isomorphic()
