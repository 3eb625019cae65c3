"""The category-only encoding of totally normal cellular/stellar
stratified spaces.

A combinatorial stratified space is an acyclic category whose objects are
the cells (graded by dimension) plus a closedness flag per cell. Domains
are never stored geometrically: the boundary decomposition of the domain
of a cell is recovered as its link poset, whose elements are the
non-identity morphisms into the cell. Barycentric subdivision, duality,
Salvetti complexes, products, complements and subdivisions all depend
only on this data.

Closedness is machine-checked through necessary conditions only (grading,
the diamond property, sphere homology of the link's order complex and of
its lower intervals). Full regular-CW-sphere recognition is undecidable
territory, so a cell may be flagged non-closed even though its link
passes the sphere test; a cell flagged closed whose link fails the test
is always an error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import category as cat_ops
from .category import AcyclicCategory, Mid, Obj
from .delta import DeltaComplex
from .homology import chain_complex, homology
from .poset import Poset, _lower_intervals, order_complex

__all__ = [
    "CombinatorialCSS",
    "SalvettiPartition",
    "link_poset",
    "validate_total_normality",
    "sd",
    "salvetti_partition",
    "dual",
    "salvetti_complex",
    "product_css",
    "remove_closed_subcomplex",
    "cellular_closure",
    "subdivide",
    "identity_subdivision",
    "poset_to_css",
    "quotient_css",
]


@dataclass(frozen=True)
class CombinatorialCSS:
    """An acyclic face category with per-cell dimension and closed flag.

    ``ambient`` remembers the complex a stratified subspace was cut from;
    it is the closure certificate consumed by cellular_closure.
    """

    cat: AcyclicCategory
    closed: dict[Obj, bool]
    ambient: "CombinatorialCSS | None" = None

    def dim(self, x: Obj) -> int:
        return self.cat.grades[x]

    def cells(self) -> tuple[Obj, ...]:
        return self.cat.objects


def link_poset(x: CombinatorialCSS, cell: Obj) -> Poset:
    """Boundary poset of the domain of a cell.

    Elements are the non-identity morphisms into the cell, ordered by
    b' <= b iff b' = b . c for some morphism c; graded by source
    dimension. Total normality makes these biject with the boundary cells
    of the domain.

    The grades and the closed order (a ``poset._Closed``) are read from
    the category's link table (``AcyclicCategory._link``), filled on the
    first call for the cell, and handed straight to ``from_relation``: a
    call costs the k = |elements| down-set frozensets, with no closure or
    cover reduction.
    """
    grades, closed = x.cat._link(cell)
    return Poset.from_relation(
        range(len(grades)),
        closed,
        dict(enumerate(grades)),
        dict(enumerate(x.cat.in_morphisms(cell))),
    )


def _sphere_homology_ok(p: Poset, n: int, memo: dict | None = None) -> bool:
    """Does the order complex of p have the homology of S^(n-1)?

    n = 0 demands the empty poset (the boundary of a point). A
    0-dimensional order complex (an antichain) is decided by its vertex
    count: its homology is Z^vertices in degree 0, so it is S^0 iff n = 1
    and there are 2 vertices.

    ``memo`` is the face category's ``AcyclicCategory._spheres`` on the
    validation path, so it lasts as long as the category. It holds two
    kinds of entries:
    - p's (elements, covers), which fix the order and so the order
      complex, map to (order complex, ``HomologyResult``);
    - an order complex's (vertex count, face table), which fix its chain
      complex and so its homology, map to that ``HomologyResult``, shared
      by posets with different keys and equal complexes.

    Every counted call still happens and returns an equal value. On a
    hit of p's key the memo's complex is attached to p as ``_complex``;
    ``order_complex(p)`` validates p and returns it, and
    ``chain_complex`` returns the chain complex attached to it as
    ``_chain`` on its first test, whose d.d = 0 certificate was computed
    then. A repeated test costs a hash of the key and p's grade check,
    not a nerve and an identity check. Only this path attaches the
    hooks: ``_complex`` only on a hit, so never to a poset tested without
    a memo, and ``_chain`` only to a complex it stores. The result is
    stored rather than the verdict, so the comparison with n stays here.
    Without a memo nothing is reused."""
    if n == 0:
        return not p.elements
    if not p.elements:
        return False
    if memo is None:
        memo = {}
    key = (p.elements, p.covers)
    known = memo.get(key)
    if known is not None:
        p.__dict__["_complex"] = known[0]
    kom = order_complex(p)
    if kom.dim() == 0:
        return n == 1 and kom.size(0) == 2
    cc = chain_complex(kom)
    if known is None:
        faces_key = (kom.size(0), kom.faces)
        h = memo.get(faces_key)
        if h is None:
            h = memo[faces_key] = homology(cc)
        kom.__dict__["_chain"] = cc
        known = memo[key] = (kom, h)
    h = known[1]
    want = [0] * max(n, 1)
    want[0] += 1
    if n >= 1:
        want[n - 1] += 1
    betti = list(h.betti) + [0] * (len(want) - len(h.betti))
    if len(betti) != len(want):
        return False
    return betti == want and all(not t for t in h.torsion)


def _diamond_ok(p: Poset) -> bool:
    """Every rank-2 interval has exactly two intermediate elements.

    Grades must rise strictly along covers, as they do in the link of a
    cell whose lifts passed ``_grading_problems``. Then the elements
    strictly between a and b, two grades apart, are the m with a covered
    by m and m covered by b, and an a two grades below b with a < b is
    either covered by b itself (no middle) or reached by such a chain of
    two covers. So for each b the two-cover chains down from b are
    counted per end a, and each a two grades below b must be counted
    exactly twice; a cover across two grades fails at once. Cost,
    before -> after: O(sum over comparable pairs two grades apart of
    |down(b)|) ``less`` calls -> O(sum over b of sum over covers m of b
    of |covers under m|) dict updates."""
    under: dict = {}
    for a, b in p.covers:
        under.setdefault(b, []).append(a)
    grades = p.grades
    for b, mids in under.items():
        two_below = grades[b] - 2
        count: dict = {}
        for m in mids:
            if grades[m] == two_below:
                return False
            for a in under.get(m, ()):
                if grades[a] == two_below:
                    count[a] = count.get(a, 0) + 1
        if any(k != 2 for k in count.values()):
            return False
    return True


def _closed_cell_problems(p: Poset, n: int, memo: dict) -> list[str]:
    """The diagnostics of a closed cell's link p: the sphere failure
    alone, else the grade and diamond failures and the first lower
    interval that is not a homology sphere. An interval is the strict
    down-set of an element, so it is down-closed: its covers are the
    link's covers whose upper end lies in it, already in
    ``from_relation``'s order, and its down-sets are the link's. All are
    read from the link's closure in one pass (``poset._lower_intervals``),
    with no closure or sort. Its elements are sorted by value (the order
    complex, and so the verdict, does not depend on their order). ``memo``
    is the category's sphere-test memo (see ``_sphere_homology_ok``):
    links and intervals repeat across the cells of one space. An empty
    interval is a homology sphere iff its top has grade 0, so it is
    decided without building its poset; under a grade-0 element the
    interval is always empty, as lifts strictly raise dimension (checked
    by ``_grading_problems``)."""
    if not _sphere_homology_ok(p, n, memo):
        return [
            f"link is not a homology ({n - 1})-sphere as required for a "
            "closed cell"
        ]
    problems = []
    if set(p.grades.values()) != set(range(n)) and n > 0:
        problems.append(f"link grades do not fill 0..{n - 1}")
    if not _diamond_ok(p):
        problems.append("link violates the diamond property")
    # each boundary cell of the domain must itself bound a sphere
    grades = p.grades
    for e, below, closed in _lower_intervals(p):
        g = grades[e]
        if not below:
            sphere = g == 0
        else:
            sub = Poset.from_relation(
                below, closed, {a: grades[a] for a in below}
            )
            sphere = _sphere_homology_ok(sub, g, memo)
        if not sphere:
            problems.append(
                f"lower interval under a grade-{g} boundary cell is not a "
                "homology sphere"
            )
            break
    return problems


def validate_total_normality(x: CombinatorialCSS) -> list[str]:
    """Diagnostics for the totally normal encoding; empty iff valid.

    Checks, per cell: the link is graded by source dimension below the
    cell dimension; cells flagged closed have sphere links (homology,
    diamond property, spherical lower intervals); flags cover all cells.
    Failures name the offending cell.

    Each distinct link or lower-interval order complex is built, and its
    chain complex certified, once per face category, and its homology is
    computed once per distinct face table: the memo
    ``AcyclicCategory._spheres`` (see ``_sphere_homology_ok``) is shared
    with ``make_css``'s flag pass and with every later validation of a
    space over the same category. A repeated test still makes its link
    or interval poset and calls ``order_complex`` and ``chain_complex``,
    which return the memo's values through the hooks that test attaches.
    A closed flag for an object that is not a cell is reported after the
    per-cell diagnostics.
    """
    problems = cat_ops.validate_category(x.cat)
    if problems:
        return [f"face category: {p}" for p in problems]
    c = x.cat
    problems = _grading_problems(c, x.closed)
    if problems:
        return problems
    memo = c._spheres
    for cell in c.objects:
        n = c.grades[cell]
        # grades of a link are source dimensions, which _grading_problems
        # has found strictly below n
        lk = link_poset(x, cell)
        if n == 0 and lk.elements:
            problems.append(f"cell {cell!r}: 0-cell with nonempty boundary")
            continue
        if x.closed[cell]:
            for d in _closed_cell_problems(lk, n, memo):
                problems.append(f"cell {cell!r}: {d}")
    return problems


def _missing_grading(c: AcyclicCategory, closed: dict[Obj, bool]) -> list[str]:
    """The cells without a dimension or a closed flag, in cell order, then
    the closed flags of objects that are not cells, in flag order. The
    category must be valid: its objects are read from ``_index``."""
    problems = []
    for cell in c.objects:
        if cell not in c.grades:
            problems.append(f"cell {cell!r}: no dimension assigned")
        if cell not in closed:
            problems.append(f"cell {cell!r}: no closedness flag")
    cells = c._index.obj
    problems += [
        f"object {x!r}: closed flag given, but it is not a cell"
        for x in closed
        if x not in cells
    ]
    return problems


def _grading_problems(
    c: AcyclicCategory, closed: dict[Obj, bool]
) -> list[str]:
    """On a valid category: the cells without a dimension or a closed flag
    (``_missing_grading``), else the cells of negative dimension (a cell
    is a disk D^n with n >= 0), in cell order, then the lifts that do not
    strictly raise dimension, compared on ``_index`` numbers with one
    grade per object number. Links are defined only when there are none."""
    problems = _missing_grading(c, closed)
    if problems:
        return problems
    ix = c._index
    grade = [c.grades[cell] for cell in c.objects]
    return [
        f"cell {cell!r}: negative dimension {d}"
        for cell, d in zip(c.objects, grade)
        if d < 0
    ] + [
        f"morphism {m!r}: lift does not strictly raise dimension"
        for m, i, j in zip(c.morphisms, ix.src, ix.dst)
        if grade[i] >= grade[j]
    ]


def _computed_closed_flags(c: AcyclicCategory) -> dict[Obj, bool]:
    """Flag each cell closed iff its link passes the sphere tests, with
    the category's sphere-test memo (``AcyclicCategory._spheres``), which
    the validation that follows reads too. When the category is invalid
    (its cached diagnostics, so no counted ``validate_category`` call) or
    its grading is (``_grading_problems``), every flag is False: its links
    may be undefined, and the validation that follows reports the
    problem."""
    probe = CombinatorialCSS(c, {cell: False for cell in c.objects})
    if c._problems or _grading_problems(c, probe.closed):
        return probe.closed
    flags = {}
    memo = c._spheres
    for cell in c.objects:
        lk = link_poset(probe, cell)
        n = c.grades[cell]
        # the first check repeats this sphere test; traced counts include it
        ok = _sphere_homology_ok(lk, n, memo)
        flags[cell] = ok and not _closed_cell_problems(lk, n, memo)
    return flags


def make_css(
    c: AcyclicCategory, closed: dict[Obj, bool] | None = None
) -> CombinatorialCSS:
    """Assemble and validate; closed flags are computed when omitted."""
    flags = dict(closed) if closed is not None else _computed_closed_flags(c)
    x = CombinatorialCSS(c, flags)
    bad = validate_total_normality(x)
    if bad:
        raise ValueError("not a totally normal encoding: " + "; ".join(bad))
    return x


def sd(x: CombinatorialCSS) -> DeltaComplex:
    """Barycentric subdivision: the nondegenerate nerve of the face
    category, graded by chain length."""
    bad = validate_total_normality(x)
    if bad:
        raise ValueError("invalid stratified space: " + "; ".join(bad))
    return cat_ops.nondegenerate_nerve(x.cat)


@dataclass(frozen=True)
class SalvettiPartition:
    """Sd cells tagged by the first and last object of their chains.

    Blocks of the source map are the upper stars (the stellar-dual
    strata, indexed by the opposite poset); blocks of the target map are
    the lower stars (the Salvetti strata)."""

    complex: DeltaComplex
    source: tuple[tuple[Obj, ...], ...]
    target: tuple[tuple[Obj, ...], ...]

    def source_block_sizes(self) -> dict[Obj, int]:
        return _block_sizes(self.source)

    def target_block_sizes(self) -> dict[Obj, int]:
        return _block_sizes(self.target)


def _block_sizes(layers) -> Counter:
    """How many sd cells carry each tag, in first-tag order."""
    return Counter(tag for layer in layers for tag in layer)


def salvetti_partition(x: CombinatorialCSS) -> SalvettiPartition:
    dc = sd(x)
    c = x.cat
    source: list[tuple[Obj, ...]] = [tuple(c.objects)]
    target: list[tuple[Obj, ...]] = [tuple(c.objects)]
    for layer in dc.cells[1:]:
        source.append(tuple(c.src[chain[0]] for chain in layer))
        target.append(tuple(c.dst[chain[-1]] for chain in layer))
    return SalvettiPartition(dc, tuple(source), tuple(target))


def _upper_heights(c: AcyclicCategory) -> dict[Obj, int]:
    """Longest chain of non-identity morphisms out of each cell, in object
    order. Lifts strictly raise dimension, so in one pass in descending
    dimension the targets of a cell's lifts come before the cell:
    O(|objects| log |objects| + |morphisms|)."""
    height: dict[Obj, int] = {}
    for v in sorted(c.objects, key=c.grades.__getitem__, reverse=True):
        height[v] = max((1 + height[c.dst[m]] for m in c.out_morphisms(v)), default=0)
    return {cell: height[cell] for cell in c.objects}


def dual(x: CombinatorialCSS) -> CombinatorialCSS:
    """Stellar dual: the opposite category, with the dual dimension of a
    cell the chain height of its upper star (the simplicial dimension of
    the cone on its upper link). Closed flags are recomputed from the
    dual links."""
    bad = validate_total_normality(x)
    if bad:
        raise ValueError("invalid stratified space: " + "; ".join(bad))
    op = cat_ops.opposite_category(x.cat)
    heights = _upper_heights(x.cat)
    op = AcyclicCategory(
        op.objects, op.morphisms, op.src, op.dst, op.compose, heights
    )
    return make_css(op)


def salvetti_complex(x: CombinatorialCSS) -> CombinatorialCSS:
    """The double dual. When all cells of x are closed this is isomorphic
    to x: same objects, dimensions, hom-sets and composition."""
    return dual(dual(x))


def product_css(x: CombinatorialCSS, y: CombinatorialCSS) -> CombinatorialCSS:
    """Product stratification: product category, summed dimensions,
    closed flags AND-ed."""
    for side in (x, y):
        bad = validate_total_normality(side)
        if bad:
            raise ValueError("invalid factor: " + "; ".join(bad))
    prod = cat_ops.product_category(x.cat, y.cat)
    closed = {
        (a, b): x.closed[a] and y.closed[b] for a in x.cells() for b in y.cells()
    }
    return make_css(prod, closed)


def remove_closed_subcomplex(x: CombinatorialCSS, cells) -> CombinatorialCSS:
    """Complement of a union of strata closed under going down (a closed
    subcomplex) or under going up (so the remainder is a closed
    subcomplex, e.g. dropping a maximal cell).

    The result is the full subcategory on the remaining cells; a cell
    stays closed iff none of the removed cells lay below it. The input is
    stored as the ambient certificate for cellular_closure.
    """
    removed = set(cells)
    unknown = removed - set(x.cells())
    if unknown:
        raise ValueError(f"unknown cells: {sorted(map(repr, unknown))}")
    c = x.cat
    down_violation = up_violation = None
    for m in c.morphisms:
        if c.dst[m] in removed and c.src[m] not in removed:
            down_violation = (c.src[m], c.dst[m])
        if c.src[m] in removed and c.dst[m] not in removed:
            up_violation = (c.src[m], c.dst[m])
    if down_violation and up_violation:
        raise ValueError(
            "removal set is neither down-closed nor up-closed: cover "
            f"{down_violation[0]!r} < {down_violation[1]!r} keeps only the "
            f"smaller cell while {up_violation[0]!r} < {up_violation[1]!r} "
            "keeps only the larger"
        )
    keep = [v for v in c.objects if v not in removed]
    sub = cat_ops.full_subcategory(c, keep)
    closed = {}
    for v in keep:
        lost = any(c.src[m] in removed for m in c.in_morphisms(v))
        closed[v] = x.closed[v] and not lost
    return CombinatorialCSS(sub, closed, ambient=x)


def cellular_closure(
    x: CombinatorialCSS, ambient: CombinatorialCSS | None = None
) -> CombinatorialCSS:
    """Minimal all-cells-closed complex containing x as a full subcategory.

    Requires a closure certificate: either x already carries the ambient
    it was cut from, or one is supplied explicitly. An input whose cells
    are all closed is returned unchanged. The ambient's face category
    must be valid: its composition is then total, so a cell's down-set
    is the sources of the morphisms into it, read in one pass.
    """
    if all(x.closed[v] for v in x.cells()):
        return x
    amb = ambient if ambient is not None else x.ambient
    if amb is None:
        raise ValueError(
            "no closure certificate: complex has non-closed cells and no "
            "stored ambient"
        )
    c = amb.cat
    if c._problems:
        raise ValueError("invalid ambient face category: " + "; ".join(c._problems))
    if not all(amb.closed[v] for v in amb.cells()):
        raise ValueError("ambient certificate has non-closed cells")
    present = set(x.cells())
    if not present <= set(amb.cells()):
        raise ValueError("ambient does not contain the complex")
    needed = present | {c.src[m] for v in present for m in c.in_morphisms(v)}
    sub = cat_ops.full_subcategory(c, needed)
    return make_css(sub, {v: True for v in needed})


def poset_to_css(p: Poset, closed: dict | None = None) -> CombinatorialCSS:
    """A graded poset as a regular stratified space: the face category is
    the poset itself, with cell ids the poset labels when present."""
    bad_grades = [e for e in p.elements if e not in p.grades]
    if bad_grades:
        raise ValueError("poset must be fully graded to act as a face poset")
    c = AcyclicCategory.from_poset(p)
    if p.labels:
        rename = {e: p.labels.get(e, e) for e in p.elements}
        mids = tuple((rename[a], rename[b]) for a, b in c.morphisms)
        c = AcyclicCategory(
            tuple(rename[e] for e in c.objects),
            mids,
            {(rename[a], rename[b]): rename[a] for a, b in c.morphisms},
            {(rename[a], rename[b]): rename[b] for a, b in c.morphisms},
            {
                ((rename[g[0]], rename[g[1]]), (rename[f[0]], rename[f[1]])): (
                    rename[gf[0]],
                    rename[gf[1]],
                )
                for (g, f), gf in c.compose.items()
            },
            {rename[e]: g for e, g in c.grades.items()},
        )
    return make_css(c, closed)


@dataclass(frozen=True)
class SubdivisionData:
    """Per-cell subdivided domains and per-lift induced poset maps.

    ``domain[cell]`` is the face poset of the whole subdivided domain,
    graded by piece dimension, with ``interior[cell]`` the ids of pieces
    interior to the domain. ``on_lift[m]`` maps pieces of the source
    domain to pieces of the target domain, landing in its boundary part.
    """

    domain: dict[Obj, Poset]
    interior: dict[Obj, frozenset]
    on_lift: dict[Mid, dict]


def identity_subdivision(x: CombinatorialCSS) -> SubdivisionData:
    """The trivial plan: each domain is its link plus one interior piece."""
    c = x.cat
    domain = {}
    interior = {}
    top: dict[Obj, int] = {}
    elem_of: dict[Obj, dict[Mid, int]] = {}
    for cell in c.objects:
        lk = link_poset(x, cell)
        n = len(lk.elements)
        elems = list(lk.elements) + [n]
        less = [(a, b) for a, b in lk.comparable_pairs()]
        less += [(e, n) for e in lk.elements]
        grades = dict(lk.grades)
        grades[n] = c.grades[cell]
        labels = dict(lk.labels)
        labels[n] = cell
        domain[cell] = Poset.from_relation(elems, less, grades, labels)
        interior[cell] = frozenset([n])
        top[cell] = n
        elem_of[cell] = {lk.labels[e]: e for e in lk.elements}
    on_lift = {}
    for m in c.morphisms:
        srccell, dstcell = c.src[m], c.dst[m]
        fmap = {top[srccell]: elem_of[dstcell][m]}
        for bmid, e in elem_of[srccell].items():
            fmap[e] = elem_of[dstcell][c.compose[(m, bmid)]]
        on_lift[m] = fmap
    return SubdivisionData(domain, interior, on_lift)


def subdivide(x: CombinatorialCSS, plan: SubdivisionData) -> CombinatorialCSS:
    """Subdivide every cell according to a functorial plan.

    The new face category is the Grothendieck construction of the
    domain-poset functor, restricted to interior pieces (each interior
    piece of each domain is exactly one new cell). The underlying poset
    of the result surjects onto the original face poset.
    """
    bad = validate_total_normality(x)
    if bad:
        raise ValueError("invalid stratified space: " + "; ".join(bad))
    c = x.cat
    for cell in c.objects:
        if cell not in plan.domain or cell not in plan.interior:
            raise ValueError(f"no subdivision plan for cell {cell!r}")
        dom = plan.domain[cell]
        if [e for e in dom.elements if e not in dom.grades]:
            raise ValueError(f"domain poset of {cell!r} is not graded")
        boundary = set(dom.elements) - set(plan.interior[cell])
        covered = set()
        for m in c.in_morphisms(cell):
            if m not in plan.on_lift:
                raise ValueError(f"no subdivision plan for lift {m!r}")
            fmap = plan.on_lift[m]
            covered |= {fmap[a] for a in plan.interior[c.src[m]]}
        if not boundary <= covered:
            raise ValueError(
                f"domain boundary of {cell!r} is not covered by the "
                "subdivided lifts"
            )
    gr = cat_ops.grothendieck(c, plan.domain, plan.on_lift)
    keep = [
        (cell, a) for cell, a in gr.objects if a in plan.interior[cell]
    ]
    sub = cat_ops.full_subcategory(gr, keep)
    return make_css(sub)


def quotient_css(
    x: CombinatorialCSS, action: cat_ops.GroupActionOnCategory
) -> CombinatorialCSS:
    """Orbit space of a free cellular action; dimensions descend."""
    q = cat_ops.quotient_by_free_action(x.cat, action)
    return make_css(q)
