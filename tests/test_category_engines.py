"""The category layer's shared engines against copies of the code they
replaced.

``categories_isomorphic`` runs networkx's graph matcher and is compared with
a copy of the backtracking search it replaced; ``validate_category`` finds
cycles by a topological count on the category's numbering and is compared
with a copy of the depth-first search it replaced; ``chain_complex`` certifies d.d = 0 by the
simplicial identities and is compared with a copy of the all-at-once
construction; ``_sphere_homology_ok`` decides 0-dimensional order complexes
by their vertex count and is compared with a copy that takes homology of
every one; ``nondegenerate_nerve`` finds each face from the chain's parent
and is compared with a copy that hashes the merged chain of every face.
"""

import functools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratakit
from stratakit.category import (
    AcyclicCategory,
    _comma_over,
    _comma_under,
    categories_isomorphic,
    grothendieck,
    nondegenerate_nerve,
    product_category,
    validate_category,
)
from stratakit.css import (
    _sphere_homology_ok,
    dual,
    identity_subdivision,
    link_poset,
    poset_to_css,
    product_css,
    quotient_css,
    salvetti_complex,
    sd,
    subdivide,
)
from stratakit.delta import DeltaComplex, f_vector, validate_delta
from stratakit.fixtures import (
    CSS_FIXTURES,
    boundary_simplex,
    circle_minimal,
    punctured_torus,
    rp2,
    simplex,
    y_space,
)
from stratakit.graphconf import (
    conf_category,
    graph_to_css,
    k5_graph,
    loop_graph,
    sigma_action,
    unordered_conf,
    y_graph,
)
from stratakit.homology import ChainComplex, chain_complex, homology
from stratakit.poset import Poset, order_complex
from test_poset_kernels import chain_layers


def isomorphic_by_search(c, d, match_grades=True):
    """The backtracking search that categories_isomorphic used to run."""
    if len(c.objects) != len(d.objects) or len(c.morphisms) != len(d.morphisms):
        return False

    def signature(cat, x):
        return (
            cat.grades.get(x) if match_grades else None,
            len(cat.out_morphisms(x)),
            len(cat.in_morphisms(x)),
        )

    d_by_sig = {}
    for y in d.objects:
        d_by_sig.setdefault(signature(d, y), []).append(y)
    for x in c.objects:
        if signature(c, x) not in d_by_sig:
            return False

    order = sorted(c.objects, key=lambda x: len(d_by_sig[signature(c, x)]))

    def mor_bijections(ms1, ms2):
        if len(ms1) != len(ms2):
            return
        if not ms1:
            yield {}
            return
        first, rest = ms1[0], ms1[1:]
        for i, m2 in enumerate(ms2):
            for tail in mor_bijections(rest, ms2[:i] + ms2[i + 1 :]):
                yield {first: m2, **tail}

    def extend(i, omap):
        if i == len(order):
            hom_maps = []
            for x in c.objects:
                for y in c.objects:
                    h1 = c.hom(x, y)
                    if not h1:
                        continue
                    options = list(mor_bijections(h1, d.hom(omap[x], omap[y])))
                    if not options:
                        return False
                    hom_maps.append(options)

            def assemble(k, mmap):
                if k == len(hom_maps):
                    return all(
                        d.compose[(mmap[g], mmap[f])] == mmap[gf]
                        for (g, f), gf in c.compose.items()
                    )
                for option in hom_maps[k]:
                    merged = {**mmap, **option}
                    good = all(
                        d.compose.get((merged[g], merged[f])) == merged.get(gf)
                        for (g, f), gf in c.compose.items()
                        if g in merged and f in merged and gf in merged
                    )
                    if good and assemble(k + 1, merged):
                        return True
                return False

            return assemble(0, {})
        x = order[i]
        used = set(omap.values())
        for y in d_by_sig[signature(c, x)]:
            if y in used:
                continue
            ok = all(
                len(c.hom(x, z)) == len(d.hom(y, omap[z]))
                and len(c.hom(z, x)) == len(d.hom(omap[z], y))
                for z in omap
            )
            if not ok:
                continue
            omap[x] = y
            if extend(i + 1, omap):
                return True
            del omap[x]
        return False

    return extend(0, {})


def assert_engines_agree(c, d):
    for match_grades in (True, False):
        expected = isomorphic_by_search(c, d, match_grades)
        assert categories_isomorphic(c, d, match_grades) == expected


def relabelled(c, obj_perm, mor_perm, entry_perm):
    """c with fresh object and morphism ids, every table in a new order."""
    obj = {x: ("x", k) for k, x in zip(obj_perm, c.objects)}
    mor = {m: ("m", k) for k, m in zip(mor_perm, c.morphisms)}
    objects = sorted(c.objects, key=lambda x: obj[x][1])
    morphisms = sorted(c.morphisms, key=lambda m: mor[m][1])
    entries = list(c.compose.items())
    entries = [entries[k] for k in entry_perm]
    return AcyclicCategory(
        tuple(obj[x] for x in objects),
        tuple(mor[m] for m in morphisms),
        {mor[m]: obj[c.src[m]] for m in morphisms},
        {mor[m]: obj[c.dst[m]] for m in morphisms},
        {(mor[g], mor[f]): mor[gf] for (g, f), gf in entries},
        {obj[x]: c.grades[x] for x in objects if x in c.grades},
    )


def with_compose(c, compose):
    return AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, compose, c.grades)


def perturbations(c):
    """c with one composite replaced by a parallel morphism, each way."""
    out = []
    for key, gf in c.compose.items():
        for alt in c.hom(c.src[gf], c.dst[gf]):
            if alt != gf:
                out.append(with_compose(c, {**c.compose, key: alt}))
    return out


def swapped_grades(c):
    """c with the grades of two differently graded objects exchanged."""
    out = []
    for i, x in enumerate(c.objects):
        for y in c.objects[i + 1 :]:
            if c.grades.get(x) != c.grades.get(y):
                grades = {**c.grades, x: c.grades.get(y), y: c.grades.get(x)}
                out.append(
                    AcyclicCategory(
                        c.objects, c.morphisms, c.src, c.dst, c.compose, grades
                    )
                )
    return out


@st.composite
def orders(draw):
    """A strict order on up to 7 elements, with drawn grades that need not
    increase along the order."""
    n = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    less = [(a, b) for a, b in draw(st.lists(pairs, max_size=20)) if a < b]
    grades = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Poset.from_relation(range(n), less, dict(enumerate(grades)))


def poset_categories():
    return orders().map(AcyclicCategory.from_poset)


# products of these, except the hexagon squared (36 objects, where the
# backtracking copy takes seconds)
SMALL = ("circle-minimal", "simplex-1", "boundary-simplex-2", "y-space")
FIXTURE_CATS = {name: make().cat for name, make in CSS_FIXTURES.items()}
FIXTURE_CATS.update(
    {
        (a, b): product_category(FIXTURE_CATS[a], FIXTURE_CATS[b])
        for a in SMALL
        for b in SMALL
        if a != b or a != "boundary-simplex-2"
    }
)
FIXTURE_NAMES = sorted(FIXTURE_CATS, key=repr)


@st.composite
def categories(draw):
    if draw(st.booleans()):
        return draw(poset_categories())
    return FIXTURE_CATS[draw(st.sampled_from(FIXTURE_NAMES))]


@st.composite
def relabellings(draw, c):
    n, m, e = len(c.objects), len(c.morphisms), len(c.compose)
    return relabelled(
        c,
        draw(st.permutations(range(n))),
        draw(st.permutations(range(m))),
        draw(st.permutations(range(e))),
    )


class TestIsomorphismAgainstSearch:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relabelled_copies(self, data):
        c = data.draw(categories())
        d = data.draw(relabellings(c))
        assert categories_isomorphic(c, d)
        assert_engines_agree(c, d)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_perturbed_compose_tables(self, data):
        c = FIXTURE_CATS[data.draw(st.sampled_from(FIXTURE_NAMES))]
        options = perturbations(c)
        if options:
            d = data.draw(st.sampled_from(options))
            assert_engines_agree(c, d)
            assert_engines_agree(c, data.draw(relabellings(d)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_swapped_grades(self, data):
        c = data.draw(categories())
        options = swapped_grades(c)
        if options:
            d = data.draw(relabellings(data.draw(st.sampled_from(options))))
            assert categories_isomorphic(c, d, match_grades=False)
            assert_engines_agree(c, d)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equal_counts_other_shape(self, data):
        # two bipartite orders with the same numbers of elements and pairs
        # and no composites; mostly non-isomorphic
        low, high = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        edges = [(a, low + b) for a in range(low) for b in range(high)]
        k = data.draw(st.integers(0, len(edges)))
        cats = []
        for _ in range(2):
            less = data.draw(st.permutations(edges))[:k]
            p = Poset.from_relation(range(low + high), less)
            cats.append(AcyclicCategory.from_poset(p))
        assert_engines_agree(*cats)

    @settings(max_examples=100, deadline=None)
    @given(poset_categories(), poset_categories())
    def test_independent_draws(self, c, d):
        assert_engines_agree(c, d)


def cone_and_fork():
    cone = Poset.from_relation(range(3), [(0, 2), (1, 2)])
    fork = Poset.from_relation(range(3), [(0, 1), (0, 2)])
    return AcyclicCategory.from_poset(cone), AcyclicCategory.from_poset(fork)


class TestIsomorphismNegatives:
    def test_same_counts_other_shape(self):
        c, d = cone_and_fork()
        assert not categories_isomorphic(c, d, match_grades=False)
        assert not isomorphic_by_search(c, d, match_grades=False)

    def test_grades_matter_only_when_matched(self):
        c = FIXTURE_CATS["simplex-1"]
        d = swapped_grades(c)[0]
        assert not categories_isomorphic(c, d)
        assert categories_isomorphic(c, d, match_grades=False)
        assert_engines_agree(c, d)

    def test_perturbed_composition(self):
        # square: two composites x -> z, swapped on one composable pair
        src = {"f": "x", "g": "y", "h": "x", "k": "w", "p": "x", "q": "x"}
        dst = {"f": "y", "g": "z", "h": "w", "k": "z", "p": "z", "q": "z"}
        compose = {("g", "f"): "p", ("k", "h"): "q"}
        c = AcyclicCategory(("x", "y", "w", "z"), tuple(src), src, dst, compose)
        d = with_compose(c, {("g", "f"): "p", ("k", "h"): "p"})
        assert validate_category(c) == validate_category(d) == []
        assert not categories_isomorphic(c, d)
        assert not isomorphic_by_search(c, d)

    def test_fixtures_pairwise(self):
        names = sorted(CSS_FIXTURES)
        for i, a in enumerate(names):
            for b in names[i:]:
                c, d = FIXTURE_CATS[a], FIXTURE_CATS[b]
                # y-space shares the minimal circle's category
                assert categories_isomorphic(c, d) == (c == d)


def existing_cases():
    """The pairs the other test modules assert isomorphic."""
    pt = Poset((0,), (), {0: 0})
    terminal = AcyclicCategory(("pt",), (), {}, {}, {}, {"pt": 0})
    c = circle_minimal().cat
    s1 = simplex(1).cat
    fiber = Poset.from_relation(range(3), [(0, 2), (1, 2)], {0: 0, 1: 0, 2: 1})
    cases = [
        (salvetti_complex(y_space()).cat, c, True),
        (product_category(c, terminal), c, True),
        (product_css(circle_minimal(), poset_to_css(pt)).cat, c, True),
        (graph_to_css(loop_graph()).cat, c, True),
        (
            grothendieck(
                s1,
                {x: pt for x in s1.objects},
                {m: {0: 0} for m in s1.morphisms},
            ),
            s1,
            False,
        ),
        (
            grothendieck(terminal, {"pt": fiber}, {}),
            AcyclicCategory.from_poset(fiber),
            True,
        ),
    ]
    for x in (circle_minimal(), simplex(2), punctured_torus()):
        cases.append((x.cat, subdivide(x, identity_subdivision(x)).cat, True))
    return cases


def test_existing_cases_agree_with_search():
    for c, d, match_grades in existing_cases():
        assert categories_isomorphic(c, d, match_grades)
        assert isomorphic_by_search(c, d, match_grades)


def problems_by_dfs(c):
    """The diagnostics validate_category gave with its depth-first search."""
    problems = []
    objs = set(c.objects)
    if len(objs) != len(c.objects):
        problems.append("duplicate object ids")
    mids = set(c.morphisms)
    if len(mids) != len(c.morphisms):
        problems.append("duplicate morphism ids")
    for m in c.morphisms:
        if c.src.get(m) not in objs or c.dst.get(m) not in objs:
            problems.append(f"morphism {m!r} has undefined endpoints")
            return problems
        if c.src[m] == c.dst[m]:
            problems.append(f"morphism {m!r}: Hom(x,x) may only contain the identity")
    adj = {x: set() for x in c.objects}
    for m in c.morphisms:
        adj[c.src[m]].add(c.dst[m])
    state = {}

    def has_cycle(x):
        stack = [(x, iter(adj[x]))]
        state[x] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for y in it:
                if state.get(y) == 1:
                    return True
                if y not in state:
                    state[y] = 1
                    stack.append((y, iter(adj[y])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
        return False

    for x in c.objects:
        if x not in state and has_cycle(x):
            problems.append("acyclicity violation: Hom cycle through objects")
            break
    return problems


@st.composite
def digraph_categories(draw):
    """One morphism per drawn edge (self-loops and cycles allowed), with
    objects possibly repeated and no composition."""
    n = draw(st.integers(1, 6))
    objects = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)
    )
    edges = [(a, b) for a, b in edges if a in objects and b in objects]
    mids = tuple(range(len(edges)))
    return AcyclicCategory(
        tuple(objects),
        mids,
        {m: edges[m][0] for m in mids},
        {m: edges[m][1] for m in mids},
        {},
    )


class TestCycleDiagnostics:
    CYCLE = "acyclicity violation: Hom cycle through objects"

    def test_two_cycle(self):
        c = AcyclicCategory(
            ("x", "y"),
            ("f", "g"),
            {"f": "x", "g": "y"},
            {"f": "y", "g": "x"},
            {("g", "f"): "f", ("f", "g"): "g"},
        )
        assert validate_category(c) == [self.CYCLE]

    def test_self_loop(self):
        c = AcyclicCategory(("x",), ("f",), {"f": "x"}, {"f": "x"}, {})
        assert validate_category(c) == [
            "morphism 'f': Hom(x,x) may only contain the identity",
            self.CYCLE,
        ]

    def test_repeated_object_is_not_a_cycle(self):
        c = AcyclicCategory(("x", "y", "y"), ("f",), {"f": "x"}, {"f": "y"}, {})
        assert validate_category(c) == ["duplicate object ids"]

    def test_fixtures_valid(self):
        for c in FIXTURE_CATS.values():
            assert validate_category(c) == problems_by_dfs(c) == []

    @settings(max_examples=300, deadline=None)
    @given(digraph_categories())
    def test_cycle_check_matches_dfs(self, c):
        expected = problems_by_dfs(c)
        got = validate_category(c)
        if expected:
            assert got == expected
        else:
            # only the composition checks, which the copy stops before
            assert not any("acyclicity" in p or "Hom(x,x)" in p for p in got)


def chain_complex_all_at_once(k):
    """Every boundary matrix first, then d.d = 0 as full sparse products."""
    mats = []
    for n in range(1, k.dim() + 1):
        mat = {}
        for c in range(k.size(n)):
            for i, f in enumerate(k.faces[n - 1][c]):
                key = (f, c)
                v = mat.get(key, 0) + (-1) ** i
                if v:
                    mat[key] = v
                elif key in mat:
                    del mat[key]
        mats.append(mat)
    for n in range(1, len(mats)):
        a_cols = {}
        for (i, j), w in mats[n - 1].items():
            a_cols.setdefault(j, []).append((i, w))
        prod = {}
        for (j, col), v in mats[n].items():
            for i, w in a_cols.get(j, ()):
                prod[(i, col)] = prod.get((i, col), 0) + v * w
        if any(prod.values()):
            raise ValueError(f"boundary squared is nonzero in dimension {n + 1}")
    return ChainComplex(f_vector(k), tuple(mats))


def assert_same_chain_complex(k):
    cc, ref = chain_complex(k), chain_complex_all_at_once(k)
    assert cc == ref
    for mat, ref_mat in zip(cc.boundaries, ref.boundaries):
        assert list(mat.items()) == list(ref_mat.items())


class TestBoundarySquared:
    def test_triangle_on_one_edge(self):
        # all three faces of the 2-cell are the same edge: d(t) = e,
        # and d(e) = b - a is not zero
        k = DeltaComplex((("a", "b"), ("e",), ("t",)), (((1, 0),), ((0, 0, 0),)))
        with pytest.raises(ValueError, match="nonzero in dimension 2"):
            chain_complex(k)
        with pytest.raises(ValueError, match="nonzero in dimension 2"):
            chain_complex_all_at_once(k)

    def test_reported_in_the_failing_dimension(self):
        # d.d = 0 up to dimension 2: a triangle t and a 2-cell u on a loop;
        # the 3-cell s has boundary t - u, and d(t - u) = d(t) - loop
        k = DeltaComplex(
            ((0, 1, 2), ("01", "02", "12", "00"), ("t", "u"), ("s",)),
            (
                ((1, 0), (2, 0), (2, 1), (0, 0)),
                ((2, 1, 0), (3, 3, 3)),
                ((0, 1, 1, 1),),
            ),
        )
        assert_same_chain_complex(DeltaComplex(k.cells[:3], k.faces[:2]))
        for build in (chain_complex, chain_complex_all_at_once):
            with pytest.raises(ValueError, match="nonzero in dimension 3"):
                build(k)

    def test_cancelling_faces_are_dropped(self):
        # a 1-cell with equal endpoints has a zero column
        k = DeltaComplex((("v",), ("loop",), ("t",)), (((0, 0),), ((0, 0, 0),)))
        assert_same_chain_complex(k)
        assert chain_complex(k).boundaries == ({}, {(0, 0): 1})

    @settings(max_examples=150, deadline=None)
    @given(orders())
    def test_order_complexes_match(self, p):
        assert_same_chain_complex(order_complex(Poset(p.elements, p.covers)))

    @pytest.mark.parametrize("name", sorted(CSS_FIXTURES))
    def test_fixture_nerves_match(self, name):
        assert_same_chain_complex(sd(CSS_FIXTURES[name]()))


@st.composite
def delta_complexes(draw):
    """A Delta complex whose n-cells are words of length n + 1 over up to
    four vertices, repeats allowed, closed under deleting a letter; d_i
    deletes letter i, so the identities hold, and a word like (v, v, w)
    has two equal faces and a loop (v, v) among them."""
    nv = draw(st.integers(1, 4))
    letters = st.integers(0, nv - 1)
    drawn = draw(st.lists(st.lists(letters, min_size=1, max_size=4), max_size=8))
    words = {tuple(w) for w in drawn} | {(v,) for v in range(nv)}
    todo = list(words)
    while todo:
        w = todo.pop()
        for i in range(len(w)) if len(w) > 1 else ():
            face = w[:i] + w[i + 1 :]
            if face not in words:
                words.add(face)
                todo.append(face)
    top = max(map(len, words))
    cells = tuple(sorted(w for w in words if len(w) == n + 1) for n in range(top))
    index = [{w: c for c, w in enumerate(layer)} for layer in cells]
    faces = tuple(
        tuple(
            tuple(index[n - 1][w[:i] + w[i + 1 :]] for i in range(n + 1))
            for w in cells[n]
        )
        for n in range(1, top)
    )
    return DeltaComplex(tuple(map(tuple, cells)), faces)


@st.composite
def corrupted_delta_complexes(draw):
    """A drawn Delta complex with up to three face entries redirected to
    other cells of the right dimension."""
    k = draw(delta_complexes())
    faces = [[list(row) for row in table] for table in k.faces]
    for _ in range(draw(st.integers(0, 3)) if faces else 0):
        n = draw(st.integers(1, len(faces)))
        c = draw(st.integers(0, len(faces[n - 1]) - 1))
        i = draw(st.integers(0, n))
        faces[n - 1][c][i] = draw(st.integers(0, k.size(n - 1) - 1))
    return DeltaComplex(k.cells, tuple(tuple(map(tuple, t)) for t in faces))


def build_or_error(build, k):
    try:
        return build(k), None
    except ValueError as e:
        return None, str(e)


class TestFaceIdentityCertificate:
    def test_failed_identity_with_zero_square_builds(self):
        # vertices p, q; a runs p -> q (d_0 a = q, d_1 a = p), b is a loop
        # at q; the 2-cell t has faces (a, a, b), so d_0 d_2 t = q but
        # d_1 d_0 t = p, while d(t) = a - a + b = b and d(b) = 0
        k = DeltaComplex(
            (("p", "q"), ("a", "b"), ("t",)),
            (((1, 0), (1, 1)), ((0, 0, 1),)),
        )
        assert validate_delta(k) == [
            "2-cell 0: d_0 d_2 != d_1 d_0",
            "2-cell 0: d_1 d_2 != d_1 d_1",
        ]
        assert chain_complex(k).boundaries == ({(1, 0): 1, (0, 0): -1}, {(1, 0): 1})
        assert_same_chain_complex(k)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(delta_complexes(), corrupted_delta_complexes()))
    def test_matches_all_at_once(self, k):
        cc, err = build_or_error(chain_complex, k)
        ref, ref_err = build_or_error(chain_complex_all_at_once, k)
        assert err == ref_err
        if err is None:
            assert cc == ref
            for mat, ref_mat in zip(cc.boundaries, ref.boundaries):
                assert list(mat.items()) == list(ref_mat.items())
                assert len(mat) == len(ref_mat)


def sphere_homology_by_chains(p, n):
    """The sphere test that took homology of every order complex."""
    if n == 0:
        return not p.elements
    if not p.elements:
        return False
    h = homology(chain_complex(order_complex(p)))
    want = [0] * max(n, 1)
    want[0] += 1
    if n >= 1:
        want[n - 1] += 1
    betti = list(h.betti) + [0] * (len(want) - len(h.betti))
    if len(betti) != len(want):
        return False
    return betti == want and all(not t for t in h.torsion)


def fixture_links():
    """Every link of every CSS fixture, and the lower interval under each
    element of each link."""
    out = []
    for name in sorted(CSS_FIXTURES):
        x = CSS_FIXTURES[name]()
        for cell in x.cells():
            lk = link_poset(x, cell)
            out.append(lk)
            for e in lk.elements:
                below = sorted(lk.down_set(e))
                covers = [(a, b) for a, b in lk.covers if b in lk.down_set(e)]
                out.append(Poset.from_relation(below, covers))
    return out


SMALL_POSETS = [Poset.from_relation(range(m), []) for m in range(4)] + [
    Poset.from_relation(range(m), [(i, i + 1) for i in range(m - 1)])
    for m in range(2, 4)
]
FIXED_POSETS = fixture_links() + SMALL_POSETS


class TestSphereVerdict:
    def test_fixed_posets(self):
        assert len(FIXED_POSETS) > 100
        for p in FIXED_POSETS:
            for n in range(5):
                assert _sphere_homology_ok(p, n) == sphere_homology_by_chains(p, n)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(FIXED_POSETS),
            orders().map(lambda p: Poset(p.elements, p.covers)),
        ),
        st.integers(0, 4),
    )
    def test_matches_homology_of_every_complex(self, p, n):
        assert _sphere_homology_ok(p, n) == sphere_homology_by_chains(p, n)


def test_cli_import_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(stratakit.__file__))
    code = (
        "import sys, stratakit.cli; "
        "sys.exit(sorted({'networkx', 'jsonschema'} & set(sys.modules)) or 0)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert done.returncode == 0, done.stderr


def test_json_inputs_are_checked_without_jsonschema(tmp_path):
    # the schema check is stratakit's own: with jsonschema unimportable, an
    # exported file validates and a misspelled key exits 2 as before
    src = os.path.dirname(os.path.dirname(stratakit.__file__))
    code = (
        "import sys; sys.modules['jsonschema'] = None; "
        "from stratakit.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=src)

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
        )

    export = tmp_path / "torus.json"
    assert cli("export", "json", "--fixture", "torus", "--out", str(export)).returncode == 0
    done = cli("validate", "--file", str(export))
    assert done.returncode == 0, done.stderr
    typo = tmp_path / "typo.json"
    typo.write_text(
        '{"n": 2, "hyperplanes": [{"a": ["1", "0"], "b": "0"}],'
        ' "hyperplanse": [{"a": ["0", "1"], "b": "0"}]}'
    )
    done = cli("validate", "--file", str(typo))
    assert done.returncode == 2
    assert done.stderr.splitlines()[0] == (
        "error: schema violations: "
        "/: Additional properties are not allowed ('hyperplanse' was unexpected)"
    )


def nerve_by_merged_chains(c):
    """The nondegenerate nerve as built before faces were found from the
    parent chain: every face is a merged chain, looked up by hashing it."""
    layers = chain_layers(
        c.morphisms, {m: c.out_morphisms(c.dst[m]) for m in c.morphisms}
    )
    cells = [tuple(c.objects)]
    cells.extend(tuple(layer) for layer in layers)
    obj_index = {x: i for i, x in enumerate(c.objects)}
    indexes = [{ch: i for i, ch in enumerate(layer)} for layer in layers]
    faces = []
    for n, layer in enumerate(layers, start=1):
        rows = []
        for chain in layer:
            row = []
            for i in range(n + 1):
                if n == 1:
                    row.append(
                        obj_index[c.dst[chain[0]] if i == 0 else c.src[chain[0]]]
                    )
                elif i == 0:
                    row.append(indexes[n - 2][chain[1:]])
                elif i == n:
                    row.append(indexes[n - 2][chain[:-1]])
                else:
                    merged = (
                        chain[: i - 1]
                        + (c.compose[(chain[i], chain[i - 1])],)
                        + chain[i + 1 :]
                    )
                    row.append(indexes[n - 2][merged])
            rows.append(tuple(row))
        faces.append(tuple(rows))
    return DeltaComplex(tuple(cells), tuple(faces))


def assert_same_nerve(c):
    dc = nondegenerate_nerve(c)
    assert dc == nerve_by_merged_chains(c)
    assert validate_delta(dc) == []


@functools.lru_cache(maxsize=None)
def nerve_spaces():
    """The CSS fixtures, the products of the torsion benchmark, the dual and
    Salvetti complex of each fixture, configuration spaces and a quotient."""
    spaces = {name: make() for name, make in CSS_FIXTURES.items()}
    for name, make in CSS_FIXTURES.items():
        spaces["dual " + name] = dual(make())
        spaces["salvetti " + name] = salvetti_complex(make())
    spaces["rp2 x rp2"] = product_css(rp2(), rp2())
    spaces["rp2 x s2"] = product_css(rp2(), boundary_simplex(3))
    for name, g, k in (("loop", loop_graph(), 2), ("y", y_graph(), 3)):
        conf = conf_category(g, k)
        spaces[f"conf_{k} {name}"] = conf
        spaces[f"conf_{k} {name} / S_{k}"] = quotient_css(conf, sigma_action(conf, k))
    spaces["unordered conf_2 K5"] = unordered_conf(k5_graph(), 2)
    return spaces


class TestNerveAgainstCopy:
    @pytest.mark.parametrize("name", sorted(nerve_spaces()))
    def test_spaces(self, name):
        assert_same_nerve(nerve_spaces()[name].cat)

    @pytest.mark.parametrize("name", sorted(CSS_FIXTURES))
    def test_link_comma_categories(self, name):
        # the comma categories whose nerves are the upper and lower stars
        # and links of each cell
        c = CSS_FIXTURES[name]().cat
        for x in c.objects:
            for comma in (_comma_under, _comma_over):
                for include_identity in (False, True):
                    assert_same_nerve(comma(c, x, include_identity))

    def test_no_morphisms(self):
        c = AcyclicCategory(("a", "b"), (), {}, {}, {})
        assert_same_nerve(c)
        assert nondegenerate_nerve(c).cells == (("a", "b"),)

    def test_empty_category(self):
        c = AcyclicCategory((), (), {}, {}, {})
        assert_same_nerve(c)
        assert nondegenerate_nerve(c) == DeltaComplex(((),), ())

    @settings(max_examples=150, deadline=None)
    @given(categories())
    def test_drawn_categories(self, c):
        assert_same_nerve(c)
