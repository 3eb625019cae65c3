"""Finite acyclic categories with explicit hom-sets and composition.

Identities are synthetic: the stored morphism list contains non-identity
morphisms only, and nerve enumeration ranges over them, which is exactly
the nondegenerate nerve. Hom-sets are explicit id lists and composition
is an explicit table, because the categories arising from cell
structures are small and their compositions are non-uniform (two
composite paths may coincide).

Object and morphism ids are arbitrary hashables; all iteration follows
the stored tuple order, so outputs are deterministic. The internal
kernels (the checks of ``validate_category``, the nerve, the link table,
group actions and orbit quotients) read one dense numbering per
category, ``AcyclicCategory._index``, instead of looking ids up in dicts;
``categories_isomorphic`` is networkx's matcher. ``_index`` is the only
derived numbering and adjacency of a category, and the only place that
hashes its ids in bulk: ``hom``, ``out_morphisms`` and ``in_morphisms``
read it, and so do the exports of ``io`` and the DOT diagram of the CLI.
The checks and the link table go back to the ids only where the
numbering cannot be built or read (undefined endpoints, missing
composites, repeated ids), so an invalid table is reported, or raises,
as it did before they read the numbering. Cells with equal link
relations share one closure (``AcyclicCategory._closures``).

The nondegenerate nerve is grown by ``delta._nerve``, the one kernel that
grows every nerve (order complexes too). The stars and links of an object
are the nerves of comma categories, all four assembled by ``_comma``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Mapping, NamedTuple

from .delta import DeltaComplex, _face_pairs, _nerve
from .poset import Poset, _Closed, _closure

__all__ = [
    "AcyclicCategory",
    "GroupActionOnCategory",
    "validate_category",
    "underlying_poset",
    "nondegenerate_nerve",
    "sd_category",
    "upper_star",
    "upper_link",
    "lower_star",
    "lower_link",
    "product_category",
    "opposite_category",
    "full_subcategory",
    "grothendieck",
    "quotient_by_free_action",
    "categories_isomorphic",
]

Obj = Hashable
Mid = Hashable

IDENTITY = "1"  # sentinel tag for identity components in derived categories


class _Index(NamedTuple):
    """The dense numbering of a category (``AcyclicCategory._index``):
    object i is ``objects[i]`` and morphism j is ``morphisms[j]``.

    ``obj`` and ``mor`` map ids to numbers; ``src`` and ``dst`` are the
    endpoint numbers of each morphism; ``out[i]`` and ``inc[i]`` list the
    morphisms out of and into object i in stored order, sharing their int
    objects with ``mor``; ``comp[g * |Mor| + f]`` is the number of
    the composite of the entry (g, f) of ``compose``, in its order, or
    None when the composite is not a morphism of the category. An entry
    naming an unknown g or f has no key, so when every entry has one,
    ``comp`` lists the entries in ``compose`` order.

    A repeated id keeps the number of its last position, so the numbering
    never merges distinct ids and a lookup through ``obj`` or ``mor``
    compares exactly as the ids do; the earlier positions of a repeated
    object are endpoints of no morphism.
    """

    obj: dict[Obj, int]
    mor: dict[Mid, int]
    src: list[int]
    dst: list[int]
    out: list[list[int]]
    inc: list[list[int]]
    comp: dict[int, int | None]


@dataclass(frozen=True)
class AcyclicCategory:
    """Objects, non-identity morphisms, and a total composition table.

    ``compose[(g, f)] = g . f`` for every composable pair of non-identity
    morphisms (dst(f) == src(g)). ``grades`` optionally assigns an integer
    to each object (the cell dimension, for face categories). Instances
    are immutable after construction: adjacency, the diagnostics of
    ``validate_category``, the closed link of each object asked for and
    the homology of each link order complex tested are computed once and
    cached.
    """

    objects: tuple[Obj, ...]
    morphisms: tuple[Mid, ...]
    src: dict[Mid, Obj]
    dst: dict[Mid, Obj]
    compose: dict[tuple[Mid, Mid], Mid]
    grades: dict[Obj, int] = field(default_factory=dict)

    @cached_property
    def _index(self) -> _Index:
        """The dense numbering (see ``_Index``), built once per category
        in O(|Ob| + |Mor| + |compose|) id lookups. Every morphism needs
        endpoints among the objects."""
        obj = {x: i for i, x in enumerate(self.objects)}
        ids = list(range(len(self.morphisms)))
        mor = dict(zip(self.morphisms, ids))
        src = [obj[self.src[m]] for m in self.morphisms]
        dst = [obj[self.dst[m]] for m in self.morphisms]
        out, inc = [[] for _ in self.objects], [[] for _ in self.objects]
        for j, i, k in zip(ids, src, dst):
            out[i].append(j)
            inc[k].append(j)
        n = len(ids)
        number = mor.get
        comp = {}
        for (g, f), gf in self.compose.items():
            gi, fi = number(g), number(f)
            if gi is not None and fi is not None:
                comp[gi * n + fi] = number(gf)
        return _Index(obj, mor, src, dst, out, inc, comp)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_category_problems(self))

    @cached_property
    def _links(self) -> dict[Obj, tuple[tuple[int, ...], _Closed]]:
        """The link table: ``_link(x)`` of each object asked for so far."""
        return {}

    @cached_property
    def _closures(self) -> dict[tuple[int, tuple[tuple[int, int], ...]], _Closed]:
        """The closures of the link table, one per distinct relation: a
        link's (element count, relation pairs) -> its ``_Closed``. The
        closure depends on nothing else, so the cells whose links have
        equal relations share one closure, computed once."""
        return {}

    @cached_property
    def _spheres(self) -> dict:
        """The sphere-test memo of ``css._sphere_homology_ok``: for each
        link or lower-interval poset with a cover tested so far, its
        (elements, covers) -> (order complex, ``HomologyResult``), and the
        complex's (vertex count, face table) -> the ``HomologyResult``.
        Every validation of a space over this category shares it."""
        return {}

    def _link(self, x: Obj) -> tuple[tuple[int, ...], _Closed]:
        """The closed link of x, computed once per object and kept in
        ``_links``: the source grades of the morphisms into x, in
        ``in_morphisms`` order, and the closure (``poset._closure``) of
        the relation b_i < b_j iff b_i = b_j . c for a morphism c into
        src(b_j), on the indices into ``in_morphisms(x)``. Labels are not
        stored: ``in_morphisms(x)`` gives them. The closure comes from
        ``_closures``: a cell whose relation (element count and pairs, in
        order) another cell had gets that cell's ``_Closed`` object.

        The morphisms into x and into each src(b) are read from ``_index``
        (``inc`` and ``src``), and each pair of the relation is one
        integer read of ``comp``. Where that read fails (a missing entry,
        a composite outside the category, or a repeated id, whose earlier
        positions have no ``comp`` key), the relation is built again from
        the ids, one ``compose`` lookup per pair, which gives the links of
        repeated ids, and for an invalid table raises the KeyError of its
        first missing entry or unknown composite; a relation with a cycle
        raises the ValueError of the closure. A failed fill keeps no
        entry. Cost of the first call O(sum over b into x of |in(src b)|)
        integer reads, plus one closure and cover reduction per distinct
        relation of the category."""
        link = self._links.get(x)
        if link is None:
            ix = self._index
            mids, inc, src = ix.inc[ix.obj[x]], ix.inc, ix.src
            objects = self.objects
            grades = tuple(self.grades[objects[src[m]]] for m in mids)
            n, comp = len(self.morphisms), ix.comp
            index = {m: i for i, m in enumerate(mids)}
            try:
                pairs = tuple([
                    (index[comp[b * n + piece]], j)
                    for j, b in enumerate(mids)
                    for piece in inc[src[b]]
                ])
            except KeyError:
                ids, compose = self.morphisms, self.compose
                index = {ids[m]: i for i, m in enumerate(mids)}
                pairs = tuple([
                    (index[compose[(ids[b], ids[piece])]], j)
                    for j, b in enumerate(mids)
                    for piece in inc[src[b]]
                ])
            key = (len(mids), pairs)
            closed = self._closures.get(key)
            if closed is None:
                closed = self._closures[key] = _closure(range(len(mids)), pairs)
            link = self._links[x] = (grades, closed)
        return link

    def hom(self, x: Obj, y: Obj) -> tuple[Mid, ...]:
        ix = self._index
        out, k = ix.out[ix.obj[x]] if x in ix.obj else (), ix.obj.get(y)
        return tuple(self.morphisms[m] for m in out if ix.dst[m] == k)

    def out_morphisms(self, x: Obj) -> tuple[Mid, ...]:
        ix = self._index
        return tuple(map(self.morphisms.__getitem__, ix.out[ix.obj[x]]))

    def in_morphisms(self, x: Obj) -> tuple[Mid, ...]:
        ix = self._index
        return tuple(map(self.morphisms.__getitem__, ix.inc[ix.obj[x]]))

    @classmethod
    def from_poset(cls, p: Poset) -> "AcyclicCategory":
        """A poset as a category: one morphism per strict pair.

        Cost O(|pairs| + |compose|): each pair (a, b) composes with the
        cached up-set of b.
        """
        mids = [(a, b) for b in p.elements for a in sorted(p.down_set(b), key=repr)]
        comp = {}
        for a, b in mids:
            for c in p._up[b]:
                comp[((b, c), (a, b))] = (a, c)
        return cls(
            tuple(p.elements),
            tuple(sorted(mids)),
            {m: m[0] for m in mids},
            {m: m[1] for m in mids},
            comp,
            dict(p.grades),
        )


def validate_category(c: AcyclicCategory) -> list[str]:
    """Report unit/associativity/acyclicity violations; empty iff valid.

    The check runs once per category; each call returns a fresh list."""
    return list(c._problems)


def _category_problems(c: AcyclicCategory) -> list[str]:
    """The diagnostics of ``validate_category``, in their order.

    Every check reads ``_index``: repeated ids are the ids the numbering
    merges, a Hom(x,x) morphism has equal endpoint numbers, and the
    composition entries are checked from the keys of ``comp``, which
    follow ``compose`` when every entry names a known g and f, so no id is
    hashed again; only a table with an entry naming an unknown g or f
    numbers its entries by their ids. If ``_index`` cannot be built (an
    undefined endpoint), the id checks run instead, and report the
    undefined endpoint, or raise, as before the numbering. Cost, before
    -> after: acyclicity by the transitive closure of
    ``poset._strict_down``, one down-set union per morphism, -> a
    topological count (Kahn), O(|Ob| + |Mor|); repeated ids and Hom(x,x)
    from two id sets and four id lookups per morphism -> two lengths and
    integer compares; composition entries, missing entries and
    associativity from nine id lookups per entry and three per
    composable pair or triple -> integer reads."""
    problems = []
    try:
        ix = c._index
    except Exception:  # the id checks below report or raise it
        ix = None
    if ix is None:
        objs = set(c.objects)
        if len(objs) != len(c.objects):
            problems.append("duplicate object ids")
        if len(set(c.morphisms)) != len(c.morphisms):
            problems.append("duplicate morphism ids")
        for m in c.morphisms:
            if c.src.get(m) not in objs or c.dst.get(m) not in objs:
                problems.append(f"morphism {m!r} has undefined endpoints")
                return problems
            if c.src[m] == c.dst[m]:
                problems.append(
                    f"morphism {m!r}: Hom(x,x) may only contain the identity"
                )
        ix = c._index
    else:
        if len(ix.obj) != len(c.objects):
            problems.append("duplicate object ids")
        if len(ix.mor) != len(c.morphisms):
            problems.append("duplicate morphism ids")
        for m, i, k in zip(c.morphisms, ix.src, ix.dst):
            if i == k:
                problems.append(
                    f"morphism {m!r}: Hom(x,x) may only contain the identity"
                )
    if not _acyclic(ix):
        problems.append("acyclicity violation: Hom cycle through objects")
    if problems:
        return problems

    morphisms = c.morphisms
    n = len(morphisms)
    src, dst, out, comp = ix.src, ix.dst, ix.out, ix.comp
    items = c.compose.items()
    if len(comp) == len(items):
        numbered = ((*divmod(key, n), hi) for key, hi in comp.items())
    else:
        number = ix.mor.get
        numbered = ((number(g), number(f), number(gf)) for (g, f), gf in items)
    for ((g, f), gf), (gi, fi, hi) in zip(items, numbered):
        if gi is None or fi is None or hi is None:
            problems.append(f"composition entry ({g!r},{f!r}) references unknown ids")
        elif dst[fi] != src[gi]:
            problems.append(f"composition entry ({g!r},{f!r}) is not composable")
        elif src[hi] != src[fi] or dst[hi] != dst[gi]:
            problems.append(f"composite {gf!r} of ({g!r},{f!r}) has wrong endpoints")
    for f in range(n):
        for g in out[dst[f]]:
            if g * n + f not in comp:
                problems.append(
                    f"missing composition entry for ({morphisms[g]!r},{morphisms[f]!r})"
                )
    if problems:
        return problems
    for f in range(n):
        for g in out[dst[f]]:
            gf = comp[g * n + f]
            for h in out[dst[g]]:
                hn = h * n
                if comp[hn + gf] != comp[comp[hn + g] * n + f]:
                    problems.append(
                        f"associativity fails on ({morphisms[h]!r},"
                        f"{morphisms[g]!r},{morphisms[f]!r})"
                    )
    return problems


def _acyclic(ix: _Index) -> bool:
    """Kahn's count: an object is counted once every morphism into it
    comes from a counted object, so all are counted iff no Hom cycle
    (a morphism x -> x included) exists. O(|Ob| + |Mor|)."""
    indeg = [0] * len(ix.out)
    for y in ix.dst:
        indeg[y] += 1
    queue = [x for x, k in enumerate(indeg) if not k]
    dst = ix.dst
    for x in queue:
        for m in ix.out[x]:
            y = dst[m]
            indeg[y] -= 1
            if not indeg[y]:
                queue.append(y)
    return len(queue) == len(indeg)


def underlying_poset(c: AcyclicCategory) -> Poset:
    """Order x <= y iff Hom(x,y) is nonempty; grades copied.

    Elements are densely renumbered in object order; labels retain the
    original object ids.
    """
    bad = validate_category(c)
    if bad:
        raise ValueError("invalid category: " + "; ".join(bad))
    ix = c._index
    less = list(zip(ix.src, ix.dst))
    grades = {ix.obj[x]: g for x, g in c.grades.items()}
    labels = {i: x for x, i in ix.obj.items()}
    return Poset.from_relation(range(len(c.objects)), less, grades, labels)


def nondegenerate_nerve(c: AcyclicCategory) -> DeltaComplex:
    """The Delta complex of composable tuples of non-identity morphisms.

    d_0 drops the first morphism, d_k the last, and inner d_i composes
    the adjacent pair; for 1-chains the two faces are target and source.
    Grown by ``delta._nerve`` from the morphisms, numbered by ``_index``:
    the 1-chain (k,) has key src(k) * |Mor| + k and row (dst(k), src(k)),
    and y may follow k, with composite y . k, for each y out of dst(k).
    """
    bad = validate_category(c)
    if bad:
        raise ValueError("invalid category: " + "; ".join(bad))
    mids = c.morphisms
    m = len(mids)
    ix = c._index
    src, dst, out, comp = ix.src, ix.dst, ix.out, ix.comp
    after = [
        [(mids[y], y, comp[y * m + k]) for y in out[dst[k]]] for k in range(m)
    ]
    keys = [i * m + k for k, i in enumerate(src)]
    first = [(f,) for f in mids]
    return _nerve(c.objects, first, keys, list(zip(dst, src)), after, m)


def sd_category(c: AcyclicCategory) -> Poset:
    """Barycentric subdivision of an acyclic category.

    Elements are the nondegenerate chains (objects are the 0-chains);
    f <= g iff f factors as g . phi for an injective order map phi. In an
    acyclic category the objects of a chain are distinct, so each proper
    nonempty subset of g's object positions gives exactly one such f: its
    objects at those positions, joined by composites of the segments of g
    between them. The result is a poset, graded by chain length, with
    elements in the cell order of ``nondegenerate_nerve``.

    Each such f is an iterated face of g, so the relation passed to
    ``Poset.from_relation`` is the nerve's face table
    (``delta._face_pairs``): each n-chain above its n + 1 faces.
    """
    dc = nondegenerate_nerve(c)
    elements = [("o", x) for x in c.objects]
    elements += [("m",) + chain for layer in dc.cells[1:] for chain in layer]
    grades = {i: len(e) - 1 if e[0] == "m" else 0 for i, e in enumerate(elements)}
    labels = dict(enumerate(elements))
    return Poset.from_relation(range(len(elements)), _face_pairs(dc), grades, labels)


def _composable_pairs(mids, src, dst):
    """Every pair (a, b) of mids with dst[a] == src[b], in the order of a
    double loop over mids. Cost O(|mids| + pairs), via a by-source index."""
    by_src: dict[Obj, list[Mid]] = {}
    for m in mids:
        by_src.setdefault(src[m], []).append(m)
    return [(a, b) for a in mids for b in by_src.get(dst[a], ())]


def _comma_under(c: AcyclicCategory, x: Obj, include_identity: bool):
    """The comma category x|C: objects are the morphisms u out of x, with
    an arrow u -> w . u along each w out of dst(u), and with the identity
    (IDENTITY, x) first and an arrow from it to each u along u."""
    one = (IDENTITY, x)
    under = c.out_morphisms(x)
    arrows = [(one, w, w) for w in under] if include_identity else []
    arrows += [
        (u, w, c.compose[(w, u)]) for u in under for w in c.out_morphisms(c.dst[u])
    ]
    objects = ([one] if include_identity else []) + list(under)
    return _comma(c, one, include_identity, objects, arrows, under, c.dst)


def _comma_over(c: AcyclicCategory, x: Obj, include_identity: bool):
    """The comma category C|x: objects are the morphisms v into x, with an
    arrow v . w -> v along each w into src(v), and with the identity
    (IDENTITY, x) last and an arrow to it from each v along v."""
    one = (IDENTITY, x)
    over = c.in_morphisms(x)
    arrows = [
        (c.compose[(v, w)], w, v) for v in over for w in c.in_morphisms(c.src[v])
    ]
    arrows += [(v, v, one) for v in over] if include_identity else []
    objects = list(over) + ([one] if include_identity else [])
    return _comma(c, one, include_identity, objects, arrows, over, c.src)


def _comma(c, one, include_identity, objects, arrows, ends, end):
    """The comma category on ``objects``: the morphisms ``ends`` of c and,
    with ``include_identity``, ``one`` = (IDENTITY, x) for the identity of
    x. An arrow (s, w, t) runs from s to t along the morphism w of c, so
    (s', w', t') . (s, w, t) = (s, w' . w, t'). A morphism u is graded as
    the object ``end[u]``, and ``one`` as x. Cost O(|Mor| + |compose|) of
    the result."""
    src = {a: a[0] for a in arrows}
    dst = {a: a[2] for a in arrows}
    comp = {
        (b, a): (a[0], c.compose[(b[1], a[1])], b[2])
        for a, b in _composable_pairs(arrows, src, dst)
    }
    grades = {u: c.grades[end[u]] for u in ends if end[u] in c.grades}
    if include_identity and one[1] in c.grades:
        grades[one] = c.grades[one[1]]
    return AcyclicCategory(tuple(objects), tuple(arrows), src, dst, comp, grades)


def upper_star(c: AcyclicCategory, x: Obj) -> DeltaComplex:
    """Nondegenerate nerve of x|C; its cell counts satisfy the cone
    identity over the upper link."""
    return _comma_nerve(c, x, _comma_under, True)


def upper_link(c: AcyclicCategory, x: Obj) -> DeltaComplex:
    return _comma_nerve(c, x, _comma_under, False)


def lower_star(c: AcyclicCategory, x: Obj) -> DeltaComplex:
    return _comma_nerve(c, x, _comma_over, True)


def lower_link(c: AcyclicCategory, x: Obj) -> DeltaComplex:
    return _comma_nerve(c, x, _comma_over, False)


def _comma_nerve(c: AcyclicCategory, x: Obj, comma, include_identity: bool):
    """The nerve of ``comma(c, x, include_identity)``, for an object x."""
    if x not in set(c.objects):
        raise KeyError(f"unknown object {x!r}")
    return nondegenerate_nerve(comma(c, x, include_identity))


def product_category(c: AcyclicCategory, d: AcyclicCategory) -> AcyclicCategory:
    """Pairs with componentwise composition; hom-sets multiply:
    Hom((x,y),(x',y')) = Hom(x,x') x Hom(y,y').

    Cost O(|Mor| + |compose|) of the result, after validating both
    factors."""
    for side, name in ((c, "first"), (d, "second")):
        bad = validate_category(side)
        if bad:
            raise ValueError(f"invalid {name} factor: " + "; ".join(bad))
    objects = [(x, y) for x in c.objects for y in d.objects]
    mids = []
    src: dict[Mid, Obj] = {}
    dst: dict[Mid, Obj] = {}
    # morphisms: (f, g) with f in Mor(c)+identities, g in Mor(d)+identities,
    # excluding identity-identity pairs. A component is an identity iff its
    # endpoints agree: validate_category allows no other endomorphism,
    # while an input id may equal the IDENTITY tag.
    c_parts = [((IDENTITY, x), x, x) for x in c.objects] + [
        (f, c.src[f], c.dst[f]) for f in c.morphisms
    ]
    d_parts = [((IDENTITY, y), y, y) for y in d.objects] + [
        (g, d.src[g], d.dst[g]) for g in d.morphisms
    ]
    for f, fs, fd in c_parts:
        for g, gs, gd in d_parts:
            if fs == fd and gs == gd:
                continue
            m = (f, g)
            mids.append(m)
            src[m], dst[m] = (fs, gs), (fd, gd)

    def compose_pair(b, a):
        (sa0, sa1), (da0, da1) = src[a], dst[a]
        (sb0, sb1), (db0, db1) = src[b], dst[b]
        if sa0 == da0:
            f = b[0]
        else:
            f = a[0] if sb0 == db0 else c.compose[(b[0], a[0])]
        if sa1 == da1:
            g = b[1]
        else:
            g = a[1] if sb1 == db1 else d.compose[(b[1], a[1])]
        return (f, g)

    comp = {
        (b, a): compose_pair(b, a) for a, b in _composable_pairs(mids, src, dst)
    }
    grades = {}
    if (not c.objects or c.grades) and (not d.objects or d.grades):
        grades = {(x, y): c.grades[x] + d.grades[y] for x, y in objects}
    return AcyclicCategory(tuple(objects), tuple(mids), src, dst, comp, grades)


def opposite_category(c: AcyclicCategory) -> AcyclicCategory:
    """Reverse all morphisms; applying it twice restores the input."""
    comp = {(f, g): gf for (g, f), gf in c.compose.items()}
    return AcyclicCategory(
        c.objects, c.morphisms, dict(c.dst), dict(c.src), comp, dict(c.grades)
    )


def full_subcategory(c: AcyclicCategory, keep) -> AcyclicCategory:
    keep = set(keep)
    mids = tuple(
        m for m in c.morphisms if c.src[m] in keep and c.dst[m] in keep
    )
    mset = set(mids)
    return AcyclicCategory(
        tuple(x for x in c.objects if x in keep),
        mids,
        {m: c.src[m] for m in mids},
        {m: c.dst[m] for m in mids},
        {k: v for k, v in c.compose.items() if k[0] in mset and k[1] in mset},
        {x: g for x, g in c.grades.items() if x in keep},
    )


def grothendieck(
    c: AcyclicCategory,
    fibers: Mapping[Obj, Poset],
    maps: Mapping[Mid, Mapping[int, int]],
) -> AcyclicCategory:
    """Grothendieck construction of a poset-valued functor on c.

    Objects are pairs (x, a) with a in fibers[x]. There is one morphism
    (x,a) -> (y,b) for each u in Hom(x,y) with maps[u](a) <= b, plus the
    fiber relations a < b over a fixed object. Raises on non-functorial
    input. Composition costs O(|Mor| + |compose|) of the result.
    """
    bad = validate_category(c)
    if bad:
        raise ValueError("invalid category: " + "; ".join(bad))
    for x in c.objects:
        if x not in fibers:
            raise ValueError(f"no fiber poset for object {x!r}")
    for u in c.morphisms:
        fu = maps.get(u)
        if fu is None:
            raise ValueError(f"no poset map for morphism {u!r}")
        source, target = fibers[c.src[u]], fibers[c.dst[u]]
        if set(fu) != set(source.elements):
            raise ValueError(f"map for {u!r} is not total on its fiber")
        if not set(fu.values()) <= set(target.elements):
            raise ValueError(f"map for {u!r} leaves the target fiber")
        for lo, hi in source.covers:
            if not target.leq(fu[lo], fu[hi]):
                raise ValueError(f"map for {u!r} is not monotone")
    for f in c.morphisms:
        for g in c.out_morphisms(c.dst[f]):
            gf = c.compose[(g, f)]
            for a in fibers[c.src[f]].elements:
                if maps[gf][a] != maps[g][maps[f][a]]:
                    raise ValueError(
                        f"functoriality fails: F({gf!r}) != F({g!r}).F({f!r})"
                    )

    objects = [(x, a) for x in c.objects for a in fibers[x].elements]
    mids: list[Mid] = []
    src: dict[Mid, Obj] = {}
    dst: dict[Mid, Obj] = {}
    for x in c.objects:
        p = fibers[x]
        for b in p.elements:
            for a in sorted(p.down_set(b), key=repr):
                m = ((IDENTITY, x), a, b)
                mids.append(m)
                src[m], dst[m] = (x, a), (x, b)
    for u in c.morphisms:
        x, y = c.src[u], c.dst[u]
        for a in fibers[x].elements:
            fa = maps[u][a]
            for b in fibers[y].elements:
                if fibers[y].leq(fa, b):
                    m = (u, a, b)
                    mids.append(m)
                    src[m], dst[m] = (x, a), (y, b)

    def compose_pair(b_mid, a_mid):
        u2, u1 = b_mid[0], a_mid[0]
        a1, b2 = a_mid[1], b_mid[2]
        # fiber relations, and only they, stay over one base object
        if src[a_mid][0] == dst[a_mid][0]:
            return (u2, a1, b2)
        if src[b_mid][0] == dst[b_mid][0]:
            return (u1, a1, b2)
        return (c.compose[(u2, u1)], a1, b2)

    comp = {
        (b_mid, a_mid): compose_pair(b_mid, a_mid)
        for a_mid, b_mid in _composable_pairs(mids, src, dst)
    }
    graded_fibers = all(
        p.grades or not p.elements for p in fibers.values()
    )
    if graded_fibers:
        grades = {(x, a): fibers[x].grades[a] for x, a in objects}
    else:
        grades = {
            (x, a): c.grades[x] for x, a in objects if x in c.grades
        }
    out = AcyclicCategory(tuple(objects), tuple(mids), src, dst, comp, grades)
    bad = validate_category(out)
    if bad:
        raise ValueError("construction not acyclic: " + "; ".join(bad))
    return out


@dataclass(frozen=True)
class GroupActionOnCategory:
    """A finite permutation group acting on a category, by generators.

    Each generator is a pair of mappings (on objects, on morphisms)
    commuting with src/dst/composition.

    The checks and the group closure run on permutation tuples over the
    category's numbering (``AcyclicCategory._index``): entry i of a tuple
    is the number of the image of object (or morphism) i. Each generator
    is read into tuples once, with one lookup per id; after that, cost
    before -> after: ``validate`` from four id lookups per morphism and
    three per composition entry -> integer reads; ``elements`` from a
    dict built per element and generator and a key of |Ob| + |Mor| id
    lookups -> one tuple of integer reads, with the dicts built once per
    element at the end.
    """

    category: AcyclicCategory
    generators: tuple[tuple[dict[Obj, Obj], dict[Mid, Mid]], ...]

    def validate(self) -> list[str]:
        problems = []
        c = self.category
        ix = c._index
        n = len(c.morphisms)
        src, dst, comp = ix.src, ix.dst, ix.comp
        for k, (omap, mmap) in enumerate(self.generators):
            po = _bijection(c.objects, ix.obj, omap)
            if po is None:
                problems.append(f"generator {k}: not an object bijection")
                continue
            pm = _bijection(c.morphisms, ix.mor, mmap)
            if pm is None:
                problems.append(f"generator {k}: not a morphism bijection")
                continue
            commutes = True
            for m, image in enumerate(pm):
                if src[image] != po[src[m]] or dst[image] != po[dst[m]]:
                    problems.append(
                        f"generator {k}: does not commute with src/dst on "
                        f"{c.morphisms[m]!r}"
                    )
                    commutes = False
            # images of a composable pair are composable only if it commutes
            if commutes:
                for key, gf in comp.items():
                    g, f = divmod(key, n)
                    if comp[pm[g] * n + pm[f]] != pm[gf]:
                        problems.append(
                            f"generator {k}: not functorial on "
                            f"({c.morphisms[g]!r},{c.morphisms[f]!r})"
                        )
                        break
            for x in c.objects:
                if x in c.grades and c.grades[omap[x]] != c.grades[x]:
                    problems.append(f"generator {k}: does not preserve grades")
                    break
        return problems

    def elements(self):
        """All group elements as (object map, morphism map) pairs."""
        objects, morphisms = self.category.objects, self.category.morphisms
        return [
            (
                dict(zip(objects, map(objects.__getitem__, po))),
                dict(zip(morphisms, map(morphisms.__getitem__, pm))),
            )
            for po, pm in self._closure()
        ]

    def _closure(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The group elements of ``elements``, in its order (breadth first
        from the identity, each element times each generator), as pairs
        of permutation tuples: the element (p, q) then s maps object i to
        s(p[i])."""
        c = self.category
        ix = c._index
        gens = [
            (_numbered(c.objects, ix.obj, omap), _numbered(c.morphisms, ix.mor, mmap))
            for omap, mmap in self.generators
        ]
        ident = (
            tuple(map(ix.obj.__getitem__, c.objects)),
            tuple(map(ix.mor.__getitem__, c.morphisms)),
        )
        seen = {ident: None}
        frontier = [ident]
        while frontier:
            nxt = []
            for po, pm in frontier:
                for so, sm in gens:
                    el = (tuple(map(so.__getitem__, po)), tuple(map(sm.__getitem__, pm)))
                    if el not in seen:
                        seen[el] = None
                        nxt.append(el)
            frontier = nxt
        return list(seen)


def _numbered(ids, number, mapping) -> tuple[int, ...]:
    """``mapping`` over a numbering: entry i is the number of the image of
    ids[i]. KeyError if an id is unmapped or an image is not numbered."""
    return tuple([number[mapping[x]] for x in ids])


def _bijection(ids, number, mapping) -> tuple[int, ...] | None:
    """``_numbered``, or None unless ``mapping`` maps the set of ids onto
    itself: exactly the ids as keys, and as many distinct images."""
    if len(mapping) != len(number):
        return None
    try:
        image = _numbered(ids, number, mapping)
    except KeyError:
        return None
    return image if len(set(image)) == len(number) else None


def quotient_by_free_action(
    c: AcyclicCategory, action: GroupActionOnCategory
) -> AcyclicCategory:
    """Orbit category of a free action.

    Freeness on objects makes composition of orbit representatives
    well-defined; the nondegenerate nerve of the quotient is the orbit
    complex of the nerve. The orbits, representatives and translations
    are read from the permutation tuples of ``action._closure`` and the
    category's numbering (``AcyclicCategory._index``), and ids are looked
    up only to build the quotient's dicts. After validating the action,
    cost O(|G| (|Ob| + |Mor|) + |compose| of the quotient) before and
    after; the per-element and per-morphism steps go from id lookups in
    dicts to integer reads.
    """
    if action.category is not c and action.category != c:
        raise ValueError("action is attached to a different category")
    bad = action.validate()
    if bad:
        raise ValueError("invalid action: " + "; ".join(bad))
    objects, morphisms = c.objects, c.morphisms
    ix = c._index
    n = len(morphisms)
    src, dst, comp = ix.src, ix.dst, ix.comp
    elements = action._closure()
    ident_o, ident_m = elements[0]
    for po, _ in elements[1:]:
        for x, image, i in zip(objects, po, ident_o):
            if image == i:
                raise ValueError(
                    f"action is not free: object {x!r} is fixed by a "
                    "non-identity element"
                )
    # the orbit rep of object i is the orbit member with the least number
    rep = [min(orbit) for orbit in zip(*(po for po, _ in elements))]
    reps = [i for i, r in zip(ident_o, rep) if r == i]
    # freeness makes each element below unique: the one moving object i
    # to its rep, and the one moving a rep to the orbit member y
    to_rep: list = [None] * len(objects)
    from_rep: dict[int, tuple[int, ...]] = {}
    for po, pm in elements:
        for i, (image, r) in enumerate(zip(po, rep)):
            if image == r and to_rep[i] is None:
                to_rep[i] = pm
        for r in reps:
            from_rep.setdefault(po[r], pm)

    # a morphism orbit has a unique member whose source is an orbit rep
    mor_rep = [to_rep[src[m]][m] for m in range(n)]
    mids = [m for m, (r, i) in enumerate(zip(mor_rep, ident_m)) if r == i]
    by_src: dict[int, list[int]] = {}
    for m in mids:
        by_src.setdefault(src[m], []).append(m)
    comp_q = {}
    for f in mids:
        y = dst[f]
        # translate g to start at the true target of the representative f
        translate = from_rep[y]
        for g in by_src.get(rep[y], ()):
            composite = mor_rep[comp[translate[g] * n + f]]
            comp_q[(morphisms[g], morphisms[f])] = morphisms[composite]
    rep_ids = tuple(objects[r] for r in reps)
    grades = {x: c.grades[x] for x in rep_ids if x in c.grades}
    return AcyclicCategory(
        rep_ids,
        tuple(morphisms[m] for m in mids),
        {morphisms[m]: objects[src[m]] for m in mids},
        {morphisms[m]: objects[rep[dst[m]]] for m in mids},
        comp_q,
        grades,
    )


def categories_isomorphic(
    c: AcyclicCategory, d: AcyclicCategory, match_grades: bool = True
) -> bool:
    """Isomorphism of categories (keeping grades when ``match_grades``) by
    networkx's VF2 matcher, on a graph with a node per object (coloured by
    its grade when ``match_grades``), per morphism and per composition
    entry (g, f), and role-labelled edges object - m (src), m - object
    (dst) and entry - g, f, g.f. In a valid acyclic category f: x -> y,
    g: y -> z and g.f: x -> z have different endpoints, so each entry's
    three edges are distinct, and a colour- and role-preserving graph
    isomorphism is exactly a category isomorphism. VF2 extends a match in
    the second graph's node order: breadth first, each entry right after
    its last morphism, so composition is checked as soon as it is defined
    (with entries last, symmetric products backtrack for seconds)."""
    import networkx as nx

    if len(c.objects) != len(d.objects) or len(c.morphisms) != len(d.morphisms):
        return False

    def graph(cat: AcyclicCategory) -> "nx.Graph":
        entries: dict[Mid, list[tuple[Mid, Mid]]] = {}
        for (g, f), gf in cat.compose.items():
            for m in {g, f, gf}:
                entries.setdefault(m, []).append((g, f))
        out = nx.Graph()  # nodes enter at their first edge, in search order
        for root in cat.objects:
            queue = [] if ("o", root) in out else [root]
            for x in queue:
                for m in cat.out_morphisms(x) + cat.in_morphisms(x):
                    if ("m", m) in out:
                        continue
                    for role, y in (("src", cat.src[m]), ("dst", cat.dst[m])):
                        if y != x and ("o", y) not in out:
                            queue.append(y)
                        out.add_edge(("o", y), ("m", m), role=role)
                    for g, f in entries.get(m, ()):
                        parts = (("g", g), ("f", f), ("g.f", cat.compose[(g, f)]))
                        if all(("m", n) in out for _, n in parts):
                            for role, n in parts:
                                out.add_edge(("c", g, f), ("m", n), role=role)
        for x in cat.objects:
            out.add_node(("o", x), colour=cat.grades.get(x) if match_grades else None)
        out.add_nodes_from((("m", m) for m in cat.morphisms), colour="morphism")
        out.add_nodes_from((("c", g, f) for g, f in cat.compose), colour="entry")
        return out

    iso = nx.algorithms.isomorphism
    return iso.GraphMatcher(
        graph(c),
        graph(d),
        node_match=iso.categorical_node_match("colour", None),
        edge_match=iso.categorical_edge_match("role", None),
    ).is_isomorphic()
