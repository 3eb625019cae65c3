"""The order jobs routed through the shared kernels, against copies of the
code they replaced.

``Poset.chains`` reads the cells of the order complex grown by the nerve
kernel and ``Poset.height`` is one longest-chain pass over the covers;
both are compared with the chain lister they used (``chain_layers``).
The level-1 face covers of an arrangement come from ``poset._cover_pairs``
in place of an ``any()`` test per pair, ``css._upper_heights`` is one
pass in descending dimension in place of a memoized recursion,
``css.cellular_closure`` reads each down-set in one pass in place of a
fixed-point loop, and ``delta.face_poset`` shares the (face, cell)
enumeration of ``category.sd_category``.
"""

import time

import pytest
from hypothesis import given, settings

import stratakit.arrangement as arrangement
from stratakit.category import AcyclicCategory
from stratakit.css import (
    CombinatorialCSS,
    _upper_heights,
    cellular_closure,
    dual,
    product_css,
    remove_closed_subcomplex,
    sd,
)
from stratakit.delta import DeltaComplex, face_poset
from stratakit.fixtures import CSS_FIXTURES, boundary_simplex, punctured_torus, simplex
from stratakit.poset import Poset, product
from test_arrangement_strata import arrangements
from test_poset import chain
from test_poset_kernels import chain_layers, relations

# --- copies of the code before the shared kernels ---------------------------


def level1_covers_before(faces):
    signs = [s for s, _ in faces]
    lows, highs = arrangement._order_masks(signs, 1)
    down = {
        a: [b for b, lo in zip(signs, lows) if not lo & hi and b != a]
        for a, hi in zip(signs, highs)
    }
    below = {a: set(bs) for a, bs in down.items()}
    return {
        a: [b for b in bs if not any(b in below[m] for m in bs)]
        for a, bs in down.items()
    }


def upper_heights_before(c):
    memo = {}

    def h(v):
        if v not in memo:
            memo[v] = max((1 + h(c.dst[m]) for m in c.out_morphisms(v)), default=0)
        return memo[v]

    return {cell: h(cell) for cell in c.objects}


def closure_cells_before(x, amb):
    needed = set(x.cells())
    c = amb.cat
    for v in x.cells():
        for m in c.in_morphisms(v):
            needed.add(c.src[m])
    changed = True
    while changed:
        changed = False
        for v in list(needed):
            for m in c.in_morphisms(v):
                if c.src[m] not in needed:
                    needed.add(c.src[m])
                    changed = True
    return needed


def face_poset_before(k):
    ids = {}
    labels = {}
    grades = {}
    counter = 0
    for n, layer in enumerate(k.cells):
        for c, key in enumerate(layer):
            ids[(n, c)] = counter
            labels[counter] = (n, key)
            grades[counter] = n
            counter += 1
    covers = set()
    for n in range(1, k.dim() + 1):
        for c in range(k.size(n)):
            for i in range(n + 1):
                covers.add((ids[(n - 1, k.face(n, c, i))], ids[(n, c)]))
    return Poset(tuple(range(counter)), tuple(sorted(covers)), grades, labels)


# --- chains and heights -----------------------------------------------------


class TestChainsAndHeight:
    @settings(max_examples=300, deadline=None)
    @given(relations())
    def test_chains_match_the_chain_lister(self, rel):
        p = Poset.from_relation(*rel)
        want = [set(layer) for layer in chain_layers(p.elements, p._up)]
        got = p.chains()
        lengths = [len(c) for c in got]
        assert lengths == sorted(lengths)
        layers = [{c for c in got if len(c) == n} for n in range(1, len(want) + 1)]
        assert layers == want
        assert len(got) == sum(map(len, want))
        assert p.height() == len(want) - 1

    def test_height_of_a_long_chain_lists_no_chains(self):
        # the chain lister enumerated all 2^60 chains of this poset
        start = time.perf_counter()
        assert chain(59).height() == 59
        assert time.perf_counter() - start < 1.0
        assert product(chain(1), chain(40)).height() == 41

    def test_empty_and_antichain(self):
        assert Poset((), ()).height() == -1
        assert Poset((), ()).chains() == []
        p = Poset((4, 2), ())
        assert p.height() == 0
        assert sorted(p.chains()) == [(2,), (4,)]

    def test_a_cycle_raises(self):
        p = Poset((0, 1), ((0, 1), (1, 0)))
        for job in (p.height, p.chains):
            with pytest.raises(ValueError, match="cycle"):
                job()


# --- arrangement covers -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(arrangements())
def test_level1_covers_match_the_pairwise_reduction(arr):
    for central in (False, True):
        faces = arrangement._level1_candidates(arr, central=central)
        got = arrangement._level1_covers(faces)
        want = level1_covers_before(faces)
        assert list(got) == list(want)
        assert {a: sorted(bs) for a, bs in got.items()} == {
            a: sorted(bs) for a, bs in want.items()
        }


# --- upper heights ----------------------------------------------------------


def spaces():
    fixtures = [make() for make in CSS_FIXTURES.values()]
    products = [
        product_css(CSS_FIXTURES[a](), CSS_FIXTURES[b]())
        for a, b in (
            ("simplex-1", "circle-minimal"),
            ("rp2", "simplex-1"),
            ("y-space", "circle-subdivided"),
        )
    ]
    return fixtures + [dual(x) for x in fixtures] + products


def test_upper_heights_match_the_recursion():
    for x in spaces():
        got = _upper_heights(x.cat)
        want = upper_heights_before(x.cat)
        assert list(got.items()) == list(want.items())


# --- cellular closure -------------------------------------------------------


def cut_spaces():
    """Each all-closed fixture with one vertex removed, and the cuts of the
    existing closure tests."""
    out = [punctured_torus(), remove_closed_subcomplex(simplex(2), [(0, 1, 2)])]
    for make in CSS_FIXTURES.values():
        x = make()
        if all(x.closed.values()):
            vertex = next(v for v in x.cells() if x.dim(v) == 0)
            out.append(remove_closed_subcomplex(x, [vertex]))
    return out


def test_closure_keeps_its_cells():
    for x in cut_spaces():
        got = cellular_closure(x)
        want = closure_cells_before(x, x.ambient)
        assert got.cells() == tuple(v for v in x.ambient.cells() if v in want)
        assert all(got.closed.values())


def test_closure_rejects_an_invalid_ambient():
    # a -> b -> c without the composite a -> c: composition is not total,
    # so the sources of the morphisms into a cell are not its down-set
    cat = AcyclicCategory(
        ("a", "b", "c"),
        ("f", "g"),
        {"f": "a", "g": "b"},
        {"f": "b", "g": "c"},
        {},
        {"a": 0, "b": 1, "c": 2},
    )
    ambient = CombinatorialCSS(cat, dict.fromkeys(cat.objects, True))
    cut = remove_closed_subcomplex(ambient, ["a"])
    assert not cut.closed["b"]
    with pytest.raises(ValueError, match="^invalid ambient face category: missing"):
        cellular_closure(cut)
    with pytest.raises(ValueError, match="^invalid ambient face category"):
        cellular_closure(remove_closed_subcomplex(boundary_simplex(2), [(0,)]), ambient)


# --- face poset -------------------------------------------------------------


def test_face_poset_matches_the_per_face_loop():
    loop = DeltaComplex(((0,), ("e",)), (((0, 0),),))  # both ends on one vertex
    complexes = [loop, DeltaComplex((), ())]
    complexes += [sd(make()) for make in CSS_FIXTURES.values()]
    for k in complexes:
        got, want = face_poset(k), face_poset_before(k)
        assert got == want
        assert list(got.grades.items()) == list(want.grades.items())
        assert list(got.labels.items()) == list(want.labels.items())
