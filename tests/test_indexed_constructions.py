"""The indexed category constructions against copies of the all-pairs loops
they replaced.

Each construction must return an equal category whose dicts also keep
their insertion order, so every comparison lists ``compose`` items (and
``src``, ``dst``, ``grades``) rather than relying on dict equality.
"""

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratakit
from stratakit.category import (
    IDENTITY,
    AcyclicCategory,
    _comma_over,
    _comma_under,
    grothendieck,
    lower_link,
    lower_star,
    nondegenerate_nerve,
    product_category,
    upper_link,
    upper_star,
)
from stratakit.css import identity_subdivision, quotient_css
from stratakit.fixtures import CSS_FIXTURES
from stratakit.graphconf import (
    ConfCell,
    Graph,
    conf_category,
    cycle_graph,
    sigma_action,
    y_graph,
)
from stratakit.poset import Poset

FIXTURES = {name: make() for name, make in CSS_FIXTURES.items()}


def assert_same(c: AcyclicCategory, d: AcyclicCategory):
    assert c == d
    for field in ("src", "dst", "compose", "grades"):
        assert list(getattr(c, field).items()) == list(getattr(d, field).items())


def is_ident(m) -> bool:
    return isinstance(m, tuple) and len(m) == 2 and m[0] == IDENTITY


def all_pairs_compose(c: AcyclicCategory, rule) -> dict:
    """The composition table as the double loop over morphisms built it."""
    comp = {}
    for a in c.morphisms:
        for b in c.morphisms:
            if c.dst[a] == c.src[b]:
                comp[(b, a)] = rule(b, a)
    return comp


def with_compose(c: AcyclicCategory, comp: dict) -> AcyclicCategory:
    return AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, comp, c.grades)


def from_poset_reference(p: Poset) -> AcyclicCategory:
    mids = [(a, b) for b in p.elements for a in sorted(p.down_set(b), key=repr)]
    comp = {}
    for a, b in mids:
        for c in p.elements:
            if p.less(b, c):
                comp[((b, c), (a, b))] = (a, c)
    return AcyclicCategory(
        tuple(p.elements),
        tuple(sorted(mids)),
        {m: m[0] for m in mids},
        {m: m[1] for m in mids},
        comp,
        dict(p.grades),
    )


def quotient_reference(c: AcyclicCategory, action) -> AcyclicCategory:
    """Orbit category by candidate lists and first-match group scans."""
    elements = action.elements()
    obj_index = {x: i for i, x in enumerate(c.objects)}
    obj_rep = {}
    for x in c.objects:
        orbit = {omap[x] for omap, _ in elements}
        obj_rep[x] = min(orbit, key=obj_index.__getitem__)
    reps = tuple(x for x in c.objects if obj_rep[x] == x)
    mor_rep = {}
    for m in c.morphisms:
        candidates = [
            mmap[m] for omap, mmap in elements if omap[c.src[m]] == obj_rep[c.src[m]]
        ]
        mor_rep[m] = candidates[0]
    mids = tuple(m for m in c.morphisms if mor_rep[m] == m)
    src = {m: c.src[m] for m in mids}
    dst = {m: obj_rep[c.dst[m]] for m in mids}
    comp = {}
    for f in mids:
        y = c.dst[f]
        for g in mids:
            if obj_rep[y] != c.src[g]:
                continue
            translate = next(mmap for omap, mmap in elements if omap[c.src[g]] == y)
            comp[(g, f)] = mor_rep[c.compose[(translate[g], f)]]
    grades = {x: c.grades[x] for x in reps if x in c.grades}
    return AcyclicCategory(reps, mids, src, dst, comp, grades)


@st.composite
def random_posets(draw):
    n = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    less = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    order = draw(st.permutations(range(n)))
    grades = draw(st.sampled_from([None, {e: 0 for e in range(n)}]))
    return Poset.from_relation(order, less, grades)


@settings(max_examples=150, deadline=None)
@given(random_posets())
def test_from_poset_matches_reference(p):
    assert_same(AcyclicCategory.from_poset(p), from_poset_reference(p))


def k4_graph():
    return Graph(
        tuple(range(4)),
        tuple(((i, j), (i, j)) for i in range(4) for j in range(i + 1, 4)),
    )


# k = 3 on cycle_graph(5) and K4 is left out: the reference's scans take
# seconds there
QUOTIENT_CASES = [
    ("cycle3", cycle_graph(3), 2),
    ("cycle3", cycle_graph(3), 3),
    ("cycle4", cycle_graph(4), 2),
    ("cycle4", cycle_graph(4), 3),
    ("cycle5", cycle_graph(5), 2),
    ("y", y_graph(), 2),
    ("y", y_graph(), 3),
    ("k4", k4_graph(), 2),
]


@pytest.mark.parametrize(
    "graph,k", [(g, k) for _, g, k in QUOTIENT_CASES],
    ids=[f"{name}-k{k}" for name, _, k in QUOTIENT_CASES],
)
def test_quotient_matches_reference(graph, k):
    ordered = conf_category(graph, k)
    action = sigma_action(ordered, k)
    q = quotient_css(ordered, action)
    assert_same(q.cat, quotient_reference(ordered.cat, action))


def _product_size(a, b):
    ca, cb = FIXTURES[a].cat, FIXTURES[b].cat
    return (len(ca.objects) + len(ca.morphisms)) * (len(cb.objects) + len(cb.morphisms))


@pytest.mark.parametrize("a", sorted(FIXTURES))
def test_product_category_matches_reference(a):
    # second factors whose product the quadratic reference builds quickly
    partners = [b for b in sorted(FIXTURES) if _product_size(a, b) <= 800]
    assert partners

    def side(cat, g, f):
        if is_ident(f):
            return g
        if is_ident(g):
            return f
        return cat.compose[(g, f)]

    c = FIXTURES[a].cat
    for b in partners:
        d = FIXTURES[b].cat
        out = product_category(c, d)
        ref = all_pairs_compose(
            out, lambda g, f: (side(c, g[0], f[0]), side(d, g[1], f[1]))
        )
        assert_same(out, with_compose(out, ref))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_stars_match_reference(name):
    c = FIXTURES[name].cat
    cases = (
        (_comma_under, True, upper_star),
        (_comma_under, False, upper_link),
        (_comma_over, True, lower_star),
        (_comma_over, False, lower_link),
    )
    for x in c.objects:
        for comma, include_identity, nerve in cases:
            out = comma(c, x, include_identity)
            ref = with_compose(
                out,
                all_pairs_compose(
                    out, lambda b, a: (a[0], c.compose[(b[1], a[1])], b[2])
                ),
            )
            assert_same(out, ref)
            assert nerve(c, x) == nondegenerate_nerve(ref)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_grothendieck_matches_reference(name):
    c = FIXTURES[name].cat
    plan = identity_subdivision(FIXTURES[name])

    def rule(b, a):
        if is_ident(a[0]):
            return (b[0], a[1], b[2])
        if is_ident(b[0]):
            return (a[0], a[1], b[2])
        return (c.compose[(b[0], a[0])], a[1], b[2])

    out = grothendieck(c, plan.domain, plan.on_lift)
    assert_same(out, with_compose(out, all_pairs_compose(out, rule)))


def test_conf_cell_hash_and_repr_unchanged():
    cell = ConfCell((("v", 0), ("e", "a")), (("a", (1,)),))
    assert hash(cell) == hash((cell.labeling, cell.orders))
    assert repr(cell) == (
        "ConfCell(labeling=(('v', 0), ('e', 'a')), orders=(('a', (1,)),))"
    )
    assert cell == ConfCell(cell.labeling, cell.orders)


def test_conf_cell_unpickled_from_another_process_rehashes():
    src = os.path.dirname(os.path.dirname(stratakit.__file__))
    code = (
        "import pickle, sys; from stratakit.graphconf import ConfCell; "
        "sys.stdout.buffer.write(pickle.dumps("
        "ConfCell((('v', 0), ('e', 'a')), (('a', (1,)),))))"
    )
    # another string-hash seed than this process's, unless it was fixed to 0
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    data = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, check=True
    ).stdout
    cell = pickle.loads(data)
    assert hash(cell) == hash((cell.labeling, cell.orders))
    assert {cell: 1}[ConfCell(cell.labeling, cell.orders)] == 1
