"""The one nerve kernel, ``delta._nerve``, against copies of the two loops
it replaced, and the one comma-category assembly, ``category._comma``,
against copies of the two it replaced.

``order_complex`` must return the complex of ``order_complex_before``;
``nondegenerate_nerve`` and the four star and link nerves that of
``nerve_before``; and ``_comma_under`` and ``_comma_over`` the categories
of their copies, every field in the same order (dict key order included).
An input that one side rejects, the other must reject with the same
exception and message. Inputs: drawn posets, valid and not,
``digraph_categories``, posets as categories, the CSS fixtures and their
products, duals and Salvetti complexes, configuration categories and
orbit quotients.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit.category import (
    IDENTITY,
    AcyclicCategory,
    _comma_over,
    _comma_under,
    lower_link,
    lower_star,
    nondegenerate_nerve,
    opposite_category,
    product_category,
    upper_link,
    upper_star,
    validate_category,
)
from stratakit.css import dual, link_poset, product_css, quotient_css, salvetti_complex
from stratakit.delta import DeltaComplex
from stratakit.fixtures import CSS_FIXTURES, boundary_simplex, rp2
from stratakit.graphconf import (
    conf_category,
    k5_graph,
    loop_graph,
    sigma_action,
    unordered_conf,
    y_graph,
)
from stratakit.poset import Poset, order_complex, validate_poset
from test_category_engines import digraph_categories


# --- copies of the code the kernel and the assembly replaced ----------------


def chain_layers(starts, after):
    layers = []
    frontier = [(x,) for x in starts]
    while frontier:
        layers.append(frontier)
        frontier = [chain + (y,) for chain in frontier for y in after[chain[-1]]]
    return layers


def order_complex_before(p):
    bad = validate_poset(p)
    if bad:
        raise ValueError("invalid poset: " + "; ".join(bad))
    if not p.covers:
        vertices = tuple(zip(sorted(p.elements)))
        return DeltaComplex((vertices,) if vertices else (), ())
    up = {e: sorted(v) for e, v in p._up.items()}
    starts = sorted(p.elements)
    by_dim = chain_layers(starts, up)
    index = {(-1, x): i for i, x in enumerate(starts)}
    faces = [[(-1,)] * len(starts)]
    for n in range(1, len(by_dim)):
        keys = [(j, y) for j, a in enumerate(by_dim[n - 1]) for y in up[a[-1]]]
        prev = faces[-1]
        layer = [tuple([index[d, y] for d in prev[j]]) + (j,) for j, y in keys]
        faces.append(tuple(layer))
        index = {key: i for i, key in enumerate(keys)}
    return DeltaComplex(tuple(map(tuple, by_dim)), tuple(faces[1:]))


def nerve_before(c):
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
    cells = [tuple(c.objects)]
    faces = []
    layer = [(f,) for f in mids]
    keys = [i * m + k for k, i in enumerate(src)]
    rows = list(zip(dst, src))
    while layer:
        cells.append(tuple(layer))
        faces.append(tuple(rows))
        index = {key: j for j, key in enumerate(keys)}
        grown, grown_keys, grown_rows = [], [], []
        for j, (a, key, up) in enumerate(zip(layer, keys, rows)):
            inner = [d * m for d in up[:-1]]
            outer = up[-1] * m
            for y, k, composite in after[key % m]:
                grown.append(a + (y,))
                grown_keys.append(j * m + k)
                row = [index[d + k] for d in inner]
                row += (index[outer + composite], j)
                grown_rows.append(tuple(row))
        layer, keys, rows = grown, grown_keys, grown_rows
    return DeltaComplex(tuple(cells), tuple(faces))


def composable_pairs(mids, src, dst):
    by_src = {}
    for m in mids:
        by_src.setdefault(src[m], []).append(m)
    return [(a, b) for a in mids for b in by_src.get(dst[a], ())]


def comma_under_before(c, x, include_identity):
    one = (IDENTITY, x)
    under = c.out_morphisms(x)
    objects = ([one] if include_identity else []) + list(under)
    mids = []
    src = {}
    dst = {}
    if include_identity:
        for w in under:
            a = (one, w, w)
            mids.append(a)
            src[a], dst[a] = one, w
    for u in under:
        for w in c.out_morphisms(c.dst[u]):
            a = (u, w, c.compose[(w, u)])
            mids.append(a)
            src[a], dst[a] = u, a[2]
    comp = {
        (b, a): (a[0], c.compose[(b[1], a[1])], b[2])
        for a, b in composable_pairs(mids, src, dst)
    }
    grades = {u: c.grades[c.dst[u]] for u in under if c.dst[u] in c.grades}
    if include_identity and x in c.grades:
        grades[one] = c.grades[x]
    return AcyclicCategory(tuple(objects), tuple(mids), src, dst, comp, grades)


def comma_over_before(c, x, include_identity):
    one = (IDENTITY, x)
    over = c.in_morphisms(x)
    objects = list(over) + ([one] if include_identity else [])
    mids = []
    src = {}
    dst = {}
    for v in over:
        for w in c.in_morphisms(c.src[v]):
            a = (c.compose[(v, w)], w, v)
            mids.append(a)
            src[a], dst[a] = a[0], v
    if include_identity:
        for u in over:
            a = (u, u, one)
            mids.append(a)
            src[a], dst[a] = u, one
    comp = {
        (b, a): (a[0], c.compose[(b[1], a[1])], b[2])
        for a, b in composable_pairs(mids, src, dst)
    }
    grades = {u: c.grades[c.src[u]] for u in over if c.src[u] in c.grades}
    if include_identity and x in c.grades:
        grades[one] = c.grades[x]
    return AcyclicCategory(tuple(objects), tuple(mids), src, dst, comp, grades)


# --- comparisons -------------------------------------------------------------


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


def fields(c):
    """Every field of a category, dicts as their item lists."""
    if not isinstance(c, AcyclicCategory):
        return c
    return (c.objects, c.morphisms) + tuple(
        list(d.items()) for d in (c.src, c.dst, c.compose, c.grades)
    )


COMMAS = (
    (_comma_under, comma_under_before, True, upper_star),
    (_comma_under, comma_under_before, False, upper_link),
    (_comma_over, comma_over_before, True, lower_star),
    (_comma_over, comma_over_before, False, lower_link),
)


def assert_same_category_paths(c):
    assert outcome(nondegenerate_nerve, c) == outcome(nerve_before, c)
    for x in dict.fromkeys(c.objects):
        for comma, before, include_identity, nerve in COMMAS:
            new = outcome(comma, c, x, include_identity)
            old = outcome(before, c, x, include_identity)
            assert fields(new) == fields(old)
            if isinstance(old, AcyclicCategory):
                assert outcome(nerve, c, x) == outcome(nerve_before, old)


def assert_same_order_complex(p):
    assert outcome(order_complex, p) == outcome(order_complex_before, p)


# --- inputs ------------------------------------------------------------------


@st.composite
def posets(draw):
    """A strict order on up to 8 distinct ids in drawn order, built by
    ``from_relation`` (order cached) or as bare covers (nothing cached),
    graded by a linear extension or not at all."""
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    less = [(ids[a], ids[b]) for a, b in draw(st.lists(pairs, max_size=20)) if a < b]
    grades = dict(zip(ids, range(n))) if draw(st.booleans()) else None
    p = Poset.from_relation(ids, less, grades)
    if draw(st.booleans()):
        p = Poset(p.elements, p.covers, dict(p.grades))
    return p


@st.composite
def raw_posets(draw):
    """Elements and covers as drawn: repeats, unknown ids, loops, cycles,
    shortcuts and grades that fall along a cover all occur."""
    elements = draw(st.lists(st.integers(0, 5), max_size=6))
    covers = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6))
    grades = draw(st.dictionaries(st.integers(0, 5), st.integers(0, 3), max_size=6))
    return Poset(tuple(elements), tuple(covers), grades)


def fixture_link_posets():
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


@functools.lru_cache(maxsize=None)
def categories():
    """Face categories of the fixtures, their products, opposites, duals and
    Salvetti complexes, configuration categories and orbit quotients."""
    cats = {}
    for name, make in CSS_FIXTURES.items():
        cats[name] = make().cat
        cats["op " + name] = opposite_category(make().cat)
        cats["dual " + name] = dual(make()).cat
        cats["salvetti " + name] = salvetti_complex(make()).cat
    small = ("circle-minimal", "simplex-1", "boundary-simplex-2", "y-space")
    for a in small:
        for b in small:
            cats[f"{a} x {b}"] = product_category(cats[a], cats[b])
    cats["rp2 x s2"] = product_css(rp2(), boundary_simplex(3)).cat
    for name, g, k in (("loop", loop_graph(), 2), ("y", y_graph(), 2)):
        conf = conf_category(g, k)
        cats[f"conf_{k} {name}"] = conf.cat
        cats[f"conf_{k} {name} / S_{k}"] = quotient_css(conf, sigma_action(conf, k)).cat
    cats["unordered conf_2 K5"] = unordered_conf(k5_graph(), 2).cat
    return cats


# --- tests -------------------------------------------------------------------


class TestOrderComplex:
    def test_fixture_links(self):
        links = fixture_link_posets()
        assert len(links) > 100
        for p in links:
            assert_same_order_complex(p)

    def test_edge_cases(self):
        for p in (
            Poset((), ()),
            Poset((3,), ()),
            Poset((2, 0, 1), ()),
            Poset((2, 0, 1), ((0, 2), (1, 2))),
            Poset((0, 1), ((0, 1), (1, 0))),
            Poset((0, 0), ()),
        ):
            assert_same_order_complex(p)
        assert order_complex(Poset((), ())) == DeltaComplex((), ())

    @settings(max_examples=400, deadline=None)
    @given(posets())
    def test_drawn_posets(self, p):
        assert_same_order_complex(p)

    @settings(max_examples=200, deadline=None)
    @given(raw_posets())
    def test_drawn_invalid_posets(self, p):
        assert_same_order_complex(p)


class TestNervesAndCommaCategories:
    @pytest.mark.parametrize("name", sorted(categories()))
    def test_spaces(self, name):
        assert_same_category_paths(categories()[name])

    def test_no_objects_and_unknown_objects(self):
        empty = AcyclicCategory((), (), {}, {}, {})
        assert_same_category_paths(empty)
        c = categories()["simplex-1"]
        for comma, before, include_identity, nerve in COMMAS:
            assert outcome(comma, c, "nowhere", include_identity) == outcome(
                before, c, "nowhere", include_identity
            )
            assert outcome(nerve, c, "nowhere")[0] is KeyError

    @settings(max_examples=200, deadline=None)
    @given(posets())
    def test_posets_as_categories(self, p):
        assert_same_category_paths(AcyclicCategory.from_poset(p))

    @settings(max_examples=300, deadline=None)
    @given(digraph_categories())
    def test_digraph_categories(self, c):
        assert_same_category_paths(c)
