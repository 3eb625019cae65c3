"""The category kernels on the dense numbering ``AcyclicCategory._index``
against copies of the id-keyed code they replaced.

``validate_category`` must return the same diagnostics in the same order,
``GroupActionOnCategory.elements`` the same list in the same order (dict
key order included), ``GroupActionOnCategory.validate`` the same
diagnostics, and ``quotient_by_free_action`` the category of
``quotient_reference``, field by field.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit.category import (
    AcyclicCategory,
    GroupActionOnCategory,
    product_category,
    quotient_by_free_action,
    validate_category,
)
from stratakit.fixtures import CSS_FIXTURES
from stratakit.graphconf import (
    Graph,
    conf_category,
    k5_graph,
    loop_graph,
    sigma_action,
    y_graph,
)
from stratakit.poset import _strict_down
from test_category_engines import digraph_categories
from test_indexed_constructions import assert_same, quotient_reference


# --- copies of the id-keyed code -------------------------------------------


def category_problems_before(c):
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
            problems.append(
                f"morphism {m!r}: Hom(x,x) may only contain the identity"
            )
    try:
        _strict_down(objs, [(c.src[m], c.dst[m]) for m in c.morphisms])
    except ValueError:
        problems.append("acyclicity violation: Hom cycle through objects")
    if problems:
        return problems

    for (g, f), gf in c.compose.items():
        if g not in mids or f not in mids or gf not in mids:
            problems.append(f"composition entry ({g!r},{f!r}) references unknown ids")
        elif c.dst[f] != c.src[g]:
            problems.append(f"composition entry ({g!r},{f!r}) is not composable")
        elif c.src[gf] != c.src[f] or c.dst[gf] != c.dst[g]:
            problems.append(f"composite {gf!r} of ({g!r},{f!r}) has wrong endpoints")
    for f in c.morphisms:
        for g in c.out_morphisms(c.dst[f]):
            if (g, f) not in c.compose:
                problems.append(f"missing composition entry for ({g!r},{f!r})")
    if problems:
        return problems
    for f in c.morphisms:
        for g in c.out_morphisms(c.dst[f]):
            gf = c.compose[(g, f)]
            for h in c.out_morphisms(c.dst[g]):
                if c.compose[(h, gf)] != c.compose[(c.compose[(h, g)], f)]:
                    problems.append(f"associativity fails on ({h!r},{g!r},{f!r})")
    return problems


def action_problems_before(action):
    problems = []
    c = action.category
    for k, (omap, mmap) in enumerate(action.generators):
        if set(omap) != set(c.objects) or set(omap.values()) != set(c.objects):
            problems.append(f"generator {k}: not an object bijection")
            continue
        if set(mmap) != set(c.morphisms) or set(mmap.values()) != set(c.morphisms):
            problems.append(f"generator {k}: not a morphism bijection")
            continue
        commutes = True
        for m in c.morphisms:
            if c.src[mmap[m]] != omap[c.src[m]] or c.dst[mmap[m]] != omap[c.dst[m]]:
                problems.append(
                    f"generator {k}: does not commute with src/dst on {m!r}"
                )
                commutes = False
        if commutes:
            for (g, f), gf in c.compose.items():
                if c.compose[(mmap[g], mmap[f])] != mmap[gf]:
                    problems.append(f"generator {k}: not functorial on ({g!r},{f!r})")
                    break
        for x in c.objects:
            if x in c.grades and c.grades[omap[x]] != c.grades[x]:
                problems.append(f"generator {k}: does not preserve grades")
                break
    return problems


def elements_before(action):
    c = action.category
    ident = ({x: x for x in c.objects}, {m: m for m in c.morphisms})

    def key(el):
        return (
            tuple(el[0][x] for x in c.objects),
            tuple(el[1][m] for m in c.morphisms),
        )

    seen = {key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for omap, mmap in frontier:
            for go, gm in action.generators:
                el = (
                    {x: go[omap[x]] for x in c.objects},
                    {m: gm[mmap[m]] for m in c.morphisms},
                )
                k = key(el)
                if k not in seen:
                    seen[k] = el
                    nxt.append(el)
        frontier = nxt
    return list(seen.values())


# --- the categories ----------------------------------------------------------


def complete_graph(n):
    return Graph(
        tuple(range(n)),
        tuple(((i, j), (i, j)) for i in range(n) for j in range(i + 1, n)),
    )


CONF = {
    "conf3-y": (conf_category(y_graph(), 3), 3),
    "conf2-k4": (conf_category(complete_graph(4), 2), 2),
    "conf2-k5": (conf_category(k5_graph(), 2), 2),
    "conf2-loop": (conf_category(loop_graph(), 2), 2),
}
BASES = {name: make().cat for name, make in CSS_FIXTURES.items()}
BASES.update(
    {
        f"{a}x{b}": product_category(BASES[a], BASES[b])
        for a, b in (
            ("circle-minimal", "simplex-1"),
            ("rp2", "circle-minimal"),
            ("y-space", "simplex-2"),
            ("torus", "boundary-simplex-2"),
        )
    }
)
BASES.update({name: x.cat for name, (x, _) in CONF.items()})
BASE_NAMES = sorted(BASES)


def rebuilt(c, compose=None, grades=None):
    """A fresh category (empty caches) with the given table or grades."""
    return AcyclicCategory(
        c.objects,
        c.morphisms,
        c.src,
        c.dst,
        c.compose if compose is None else compose,
        c.grades if grades is None else grades,
    )


@st.composite
def perturbed_categories(draw):
    """A base category, possibly with its composition table perturbed: an
    entry dropped, an entry redirected to another morphism (wrong
    endpoints, mostly), two entries with parallel composites swapped (so
    associativity can fail), an unknown id, or an entry for a pair that
    is not composable."""
    c = BASES[draw(st.sampled_from(BASE_NAMES))]
    kind = draw(
        st.sampled_from(["none", "drop", "redirect", "swap", "unknown", "uncomposable"])
    )
    items = list(c.compose.items())
    if kind == "none" or not items:
        return rebuilt(c)
    i = draw(st.integers(0, len(items) - 1))
    (g, f), gf = items[i]
    comp = dict(items)
    if kind == "drop":
        del comp[(g, f)]
    elif kind == "redirect":
        comp[(g, f)] = draw(st.sampled_from(c.morphisms))
    elif kind == "swap":
        parallel = [
            key
            for key, v in items
            if key != (g, f) and (c.src[v], c.dst[v]) == (c.src[gf], c.dst[gf])
        ]
        if parallel:
            other = draw(st.sampled_from(parallel))
            comp[(g, f)], comp[other] = comp[other], gf
    elif kind == "unknown":
        where = draw(st.integers(0, 2))
        ghost = ("no such morphism",)
        del comp[(g, f)]
        key = (ghost, f) if where == 0 else (g, ghost) if where == 1 else (g, f)
        comp[key] = ghost if where == 2 else gf
    else:
        comp[(f, f)] = gf
    return rebuilt(c, compose=comp)


@settings(max_examples=120, deadline=None)
@given(perturbed_categories())
def test_validate_category_matches_copy(c):
    assert validate_category(c) == category_problems_before(c)


@st.composite
def digraph_categories_with_repeats(draw):
    """``digraph_categories`` (repeated objects, self-loops, cycles), with
    some morphism ids repeated too."""
    c = draw(digraph_categories())
    again = draw(st.lists(st.sampled_from(c.morphisms), max_size=3)) if c.morphisms else []
    return AcyclicCategory(c.objects, c.morphisms + tuple(again), c.src, c.dst, {})


@settings(max_examples=300, deadline=None)
@given(digraph_categories_with_repeats())
def test_validate_category_matches_copy_on_repeats_and_cycles(c):
    # the numbering gives a repeated id its last position; the cycle check
    # on it must agree with the closure-based check on the id set
    assert validate_category(c) == category_problems_before(c)


def swaps_of_parallel_composites(c):
    """Tables with the composites of two entries swapped, where the two
    composites are distinct and parallel: every endpoint check passes."""
    items = list(c.compose.items())
    for i, (key, v) in enumerate(items):
        for other, w in items[i + 1 :]:
            if v != w and (c.src[v], c.dst[v]) == (c.src[w], c.dst[w]):
                comp = dict(items)
                comp[key], comp[other] = w, v
                yield rebuilt(c, compose=comp)


def test_perturbations_reach_every_check():
    c = BASES["conf2-k4"]
    items = list(c.compose.items())
    (g, f), gf = items[0]
    dropped = dict(items)
    del dropped[(g, f)]
    wrong = dict(items)
    wrong[(g, f)] = next(
        m for m in c.morphisms if (c.src[m], c.dst[m]) != (c.src[gf], c.dst[gf])
    )
    kinds = {
        "missing composition entry": rebuilt(c, compose=dropped),
        "has wrong endpoints": rebuilt(c, compose=wrong),
        # configuration categories have no parallel morphisms, and the
        # torus has them but no composable triple
        "associativity fails": next(
            d
            for d in swaps_of_parallel_composites(BASES["rp2xcircle-minimal"])
            if category_problems_before(d)
        ),
    }
    for text, d in kinds.items():
        got = validate_category(d)
        assert got == category_problems_before(d)
        assert got and all(text in p for p in got)


# --- group actions -----------------------------------------------------------


def hand_built_actions():
    """The actions of tests/test_category.py::TestQuotient that validate."""
    circle = CSS_FIXTURES["circle-minimal"]().cat
    pair = AcyclicCategory(("x", "y"), (), {}, {}, {}, {"x": 0, "y": 0})
    triple = AcyclicCategory(("x", "y", "z"), (), {}, {}, {}, {"x": 0, "y": 0, "z": 0})
    return {
        "trivial": GroupActionOnCategory(circle, ()),
        "swap-pair": GroupActionOnCategory(pair, (({"x": "y", "y": "x"}, {}),)),
        "fixed-z": GroupActionOnCategory(triple, (({"x": "y", "y": "x", "z": "z"}, {}),)),
    }


ACTIONS = {name: sigma_action(x, k) for name, (x, k) in CONF.items()}
ACTIONS.update(hand_built_actions())


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_elements_match_copy(name):
    action = ACTIONS[name]
    got, want = action.elements(), elements_before(action)
    assert got == want
    assert [(list(o.items()), list(m.items())) for o, m in got] == [
        (list(o.items()), list(m.items())) for o, m in want
    ]


def parallel_pair(c):
    """Two distinct morphisms with the same endpoints, the first of them
    the source of a composition entry."""
    by_ends = {}
    for m in c.morphisms:
        by_ends.setdefault((c.src[m], c.dst[m]), []).append(m)
    firsts = {f for _, f in c.compose}
    for ms in by_ends.values():
        for a in ms:
            if a in firsts and len(ms) > 1:
                return a, next(b for b in ms if b != a)
    return None


def bad_generators():
    """(category, generators, the diagnostic each case must give)."""
    x, k = CONF["conf2-k4"]
    c = x.cat
    omap, mmap = sigma_action(x, k).generators[0]
    cases = []
    shrunk = dict(omap)
    del shrunk[c.objects[0]]
    cases.append((c, [(shrunk, mmap)], "not an object bijection"))
    collapsed = dict(omap)
    collapsed[c.objects[0]] = collapsed[c.objects[1]]
    cases.append((c, [(collapsed, mmap)], "not an object bijection"))
    extra = dict(omap)
    extra["not an object"] = c.objects[0]
    cases.append((c, [(extra, mmap)], "not an object bijection"))
    outside = dict(mmap)
    outside[c.morphisms[0]] = "not a morphism"
    cases.append((c, [(omap, outside)], "not a morphism bijection"))
    collapsed_m = dict(mmap)
    collapsed_m[c.morphisms[0]] = collapsed_m[c.morphisms[1]]
    cases.append((c, [(omap, collapsed_m)], "not a morphism bijection"))
    f = c.morphisms[0]
    g = next(m for m in c.morphisms if c.src[m] != c.src[f])
    swapped = dict(mmap)
    swapped[f], swapped[g] = mmap[g], mmap[f]
    cases.append((c, [(omap, swapped)], "does not commute with src/dst"))
    # on the torus, two parallel morphisms swapped keep src/dst and break
    # composition (configuration categories have no parallel morphisms)
    torus = BASES["torus"]
    a, b = parallel_pair(torus)
    identity = ({y: y for y in torus.objects}, {m: m for m in torus.morphisms})
    twisted = dict(identity[1])
    twisted[a], twisted[b] = b, a
    cases.append((torus, [(identity[0], twisted)], "not functorial"))
    # the second generator is the bad one; diagnostics name it
    cases.append(
        (torus, [identity, (identity[0], twisted)], "generator 1: not functorial")
    )
    regraded = dict(c.grades)
    regraded[c.objects[0]] += 1
    cases.append((rebuilt(c, grades=regraded), [(omap, mmap)], "does not preserve grades"))
    pair = AcyclicCategory(("x", "y"), (), {}, {}, {}, {"x": 0, "y": 1})
    cases.append((pair, [({"x": "y", "y": "x"}, {})], "does not preserve grades"))
    return cases


@pytest.mark.parametrize("case", range(len(bad_generators())))
def test_action_validate_matches_copy(case):
    c, gens, text = bad_generators()[case]
    action = GroupActionOnCategory(c, tuple(gens))
    got = action.validate()
    assert got == action_problems_before(action)
    assert got and any(text in p for p in got)


@pytest.mark.parametrize("name", sorted(CONF))
def test_valid_actions_validate_as_copy(name):
    action = ACTIONS[name]
    assert action.validate() == action_problems_before(action) == []


# --- orbit quotients ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CONF))
def test_quotient_matches_reference(name):
    action = ACTIONS[name]
    c = action.category
    assert_same(quotient_by_free_action(c, action), quotient_reference(c, action))


@pytest.mark.parametrize("name", ["trivial", "swap-pair"])
def test_quotient_of_hand_built_action_matches_reference(name):
    action = ACTIONS[name]
    c = action.category
    assert_same(quotient_by_free_action(c, action), quotient_reference(c, action))


def test_non_free_error_text():
    with pytest.raises(ValueError) as err:
        action = ACTIONS["fixed-z"]
        quotient_by_free_action(action.category, action)
    assert str(err.value) == (
        "action is not free: object 'z' is fixed by a non-identity element"
    )
    # an element fixing every object while moving morphisms is not free
    # either; the first object in stored order is named
    c = CSS_FIXTURES["circle-minimal"]().cat
    a, b = c.morphisms[:2]
    assert (c.src[a], c.dst[a]) == (c.src[b], c.dst[b])
    swap = GroupActionOnCategory(c, (({x: x for x in c.objects}, {a: b, b: a}),))
    assert swap.validate() == []
    with pytest.raises(ValueError) as err:
        quotient_by_free_action(c, swap)
    assert str(err.value) == (
        f"action is not free: object {c.objects[0]!r} is fixed by a "
        "non-identity element"
    )
