"""Finite graded posets.

A poset is stored by its covering pairs; the full order relation is
materialized on demand via transitive closure and cached on the instance.
Elements are integer ids. Grades are optional and, where present, must
strictly increase along covers; operations that need grades fail fast
rather than inferring them.

Each order-theoretic primitive exists once here: ``_strict_down`` is
the only topological sort and transitive closure (Kahn's algorithm,
accumulating down-sets as it goes, ValueError on a cycle),
``_cover_pairs`` the only reduction of a closed order to its covers, and
``_order_nerve`` the only chain lister, for ``order_complex`` and
``Poset.chains``: the nerve of the poset as a thin category, grown by
the one kernel that grows every nerve, ``delta._nerve``.
``Poset.height`` is one pass over the covers. ``validate_category``
needs no closure: its cycle check is a topological count on the
category's own numbering (``category._acyclic``).

``_closure`` is the one routine that closes and reduces a relation on
distinct elements. It returns a ``_Closed`` (covers and down-sets), the
one form of a closed order: ``Poset.from_relation`` closes through it,
and takes a ``_Closed`` made before without closing again. The
arrangement's level-1 face covers (``arrangement._level1_covers``) are
read from one. A face category's link table keeps one per cell
(``AcyclicCategory._link``), and ``_lower_intervals`` restricts a
poset's closure to each of its lower intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .delta import DeltaComplex, _nerve

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
        less: "Iterable[tuple[int, int]] | _Closed",
        grades: Mapping[int, int] | None = None,
        labels: Mapping[int, Hashable] | None = None,
    ) -> "Poset":
        """Build a poset from an arbitrary strict-order relation.

        The relation is closed and reduced to its covering pairs by
        ``_closure``, so callers may pass any generating set of pairs. The
        closure is also the covers' closure, so it becomes the cached
        ``_down``, and the poset is marked ``_order_valid``: its covers
        name known elements, are irreflexive, acyclic and no transitive
        shortcut, so ``validate_poset`` checks only its grades (which
        are taken as given). With repeated elements only the covers are
        kept, and both checks are left to ``validate_poset``.

        ``less`` may instead be a ``_Closed`` that this module made for
        these (distinct) elements: an order closed and reduced before. Its
        covers are taken as they are and its down-sets become ``_down``,
        so the poset is the one its generating relation would give.

        Cost: the closure takes one down-set union per pair of ``less``
        and the reduction one per comparable pair; an empty relation costs
        O(|elements|). A ``_Closed`` costs one frozenset per element,
        O(|elements| + |comparable pairs|), and shares its covers.
        """
        elems = tuple(elements)
        if isinstance(less, _Closed):
            closed, distinct = less, True
        else:
            if not isinstance(less, (list, tuple)):
                less = list(less)
            closed = _closure(elems, less)
            distinct = len(set(elems)) == len(elems)
        p = cls(
            elems,
            tuple(closed.covers),
            dict(grades) if grades else {},
            dict(labels) if labels else {},
        )
        if distinct:
            if closed.covers:
                p.__dict__["_down"] = dict(zip(elems, map(frozenset, closed.down)))
            else:
                p.__dict__["_down"] = dict.fromkeys(elems, frozenset())
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
        """All nonempty strictly increasing chains, shortest first: the
        cells of the order complex (``_order_nerve``)."""
        return [c for layer in _order_nerve(self).cells for c in layer]

    def height(self) -> int:
        """Length (number of covers) of the longest chain; -1 if empty.

        One pass over the covers by the down-set size of their upper end,
        which is a topological order: a strict down-set is larger than
        every down-set inside it."""
        down = self._down
        longest = dict.fromkeys(self.elements, 0)
        for lo, hi in sorted(self.covers, key=lambda c: len(down[c[1]])):
            longest[hi] = max(longest[hi], longest[lo] + 1)
        return max(longest.values(), default=-1)


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


def _cover_pairs(elements, closure) -> list[tuple]:
    """The covering pairs (lo, hi) of a strict order given by its strict
    down-sets ``closure[hi]``: the elements below hi that lie below
    nothing else below hi. One down-set union per comparable pair; the
    pairs of one hi come in set order, so callers sort or group them."""
    found = []
    for hi in elements:
        below = closure[hi]
        if below:
            shadow = set().union(*map(closure.__getitem__, below))
            found.extend((lo, hi) for lo in below - shadow)
    return found


class _Closed(NamedTuple):
    """A strict order on distinct elements, closed and reduced: its
    covers sorted by ``repr`` and the strict down-set of each element, in
    element order. ``_closure`` makes one from a relation, with sorted int
    tuples as down-sets; ``_lower_intervals`` restricts a poset's to each
    lower interval, with the poset's frozensets. ``Poset.from_relation``
    takes either without closing again."""

    covers: Sequence[tuple[int, int]]
    down: Sequence[Iterable[int]]


def _closure(elements: Sequence, pairs) -> _Closed:
    """The order generated by ``pairs`` on ``elements``, closed
    (``_strict_down``) and reduced (``_cover_pairs``) once. Raises
    ValueError on a cycle and KeyError on an unknown element. An empty
    relation is an antichain: no covers and one shared empty down-set,
    with no closure. On repeated elements ``from_relation`` keeps only
    the covers."""
    if not pairs:
        return _Closed((), ((),) * len(elements))
    closure = _strict_down(elements, pairs)
    covers = tuple(sorted(_cover_pairs(elements, closure), key=repr))
    return _Closed(covers, tuple(tuple(sorted(closure[e])) for e in elements))


def _lower_intervals(p: Poset):
    """Each element e of p, in element order, with its lower interval:
    the strict down-set of e as a sorted list ``below``, and p's closure
    restricted to it as a ``_Closed`` for ``from_relation(below, ...)``.
    A down-set is down-closed, so the interval's down-sets are p's and
    its covers are p's covers whose upper end lies in it; one pass over
    p's covers hands each cover (a, b) to the interval of every element
    above b (``_up``), so every interval gets its covers in p's order.
    Cost O(|comparable pairs| + sum over intervals of their covers and
    elements), with no closure and no sort by ``repr``; without covers
    every interval is empty and no up-set is built."""
    if not p.covers:
        for e in p.elements:
            yield e, [], _Closed((), [])
        return
    down, up = p._down, p._up
    covers: dict = {e: [] for e in p.elements}
    for ab in p.covers:
        for e in up[ab[1]]:
            covers[e].append(ab)
    for e in p.elements:
        below = sorted(down[e])
        yield e, below, _Closed(covers[e], [down[a] for a in below])


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

    The i-th face deletes the i-th chain entry. It is the nerve of p as a
    thin category, grown by ``delta._nerve`` with the sorted elements as
    letters: y may follow x, with composite y, for each y in the sorted
    up-set of x, so chains come out sorted, one layer per dimension. An
    antichain is its vertices, returned without the up-sets, and the empty
    poset gives the empty complex.

    p is validated on every call. A poset that the validation path's
    sphere test (``css._sphere_homology_ok``) found in its face
    category's memo carries the memo's complex for its elements and
    covers as ``_complex``, and that complex is returned without a
    nerve. Nothing is kept on any other poset.
    """
    bad = validate_poset(p)
    if bad:
        raise ValueError("invalid poset: " + "; ".join(bad))
    known = p.__dict__.get("_complex")
    if known is not None:
        return known
    if not p.covers:
        vertices = tuple(zip(sorted(p.elements)))
        return DeltaComplex((vertices,) if vertices else (), ())
    return _order_nerve(p)


def _order_nerve(p: Poset) -> DeltaComplex:
    """The order complex of p, unvalidated: ``delta._nerve`` with the
    sorted elements as letters, each followed by its sorted up-set."""
    starts = sorted(p.elements)
    m = len(starts)
    pos = {x: i for i, x in enumerate(starts)}
    up = p._up
    after = [[(y, pos[y], pos[y]) for y in sorted(up[x])] for x in starts]
    pairs = [(i, k) for i, ys in enumerate(after) for _, k, _ in ys]
    edges = [(starts[i], starts[k]) for i, k in pairs]
    keys = [i * m + k for i, k in pairs]
    rows = [(k, i) for i, k in pairs]
    return _nerve(tuple(zip(starts)), edges, keys, rows, after, m)


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
