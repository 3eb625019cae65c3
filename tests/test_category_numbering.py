"""Adjacency, link tables, exports and the subdivision poset read one
numbering per category, ``AcyclicCategory._index``; each is compared
with a copy of the code it replaced, which kept its own id-keyed
adjacency or numbering.

- ``sd_category`` relates each chain to the n + 1 faces of the nerve's
  face table; the copy related it to all of its 2^(n+1) - 2 sub-chains.
  Elements, covers and their order, grades, labels and down-sets must
  agree, and an invalid category must raise the same error.
- ``out_morphisms``, ``in_morphisms`` and ``hom`` must return what the
  cached id-keyed dicts gave, also with repeated ids, unknown objects and
  endpoints outside the objects.
- ``dump_category`` and ``dump_css`` must write the same JSON as the copy
  that renumbered ids itself, on categories the CLI digests do not cover.
- ``_link`` must return the same grades and closure, or raise the same
  KeyError or ValueError, as the copy that looked composites up by ids and
  then closed the relation, also on invalid tables and repeated morphism
  ids.

Inputs are fixtures, duals, products, configuration spaces, their
quotients and random categories from ``digraph_categories``.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import io as sio
from stratakit.category import (
    AcyclicCategory,
    product_category,
    sd_category,
    validate_category,
)
from stratakit.css import CombinatorialCSS, dual, product_css, quotient_css
from stratakit.fixtures import CSS_FIXTURES
from stratakit.graphconf import (
    conf_category,
    cycle_graph,
    edge_graph,
    k5_graph,
    loop_graph,
    sigma_action,
    unordered_conf,
    y_graph,
)
from stratakit.poset import Poset
from test_category_index import digraph_categories_with_repeats, perturbed_categories
from test_link_table import from_relation_before
from test_poset_kernels import chain_layers


# --- copies of the code before the one numbering ----------------------------


def adjacency_before(c):
    """The cached ``_out`` and ``_in`` dicts."""
    out = {x: [] for x in c.objects}
    inc = {x: [] for x in c.objects}
    for m in c.morphisms:
        out[c.src[m]].append(m)
    for m in c.morphisms:
        inc[c.dst[m]].append(m)
    return (
        {x: tuple(v) for x, v in out.items()},
        {x: tuple(v) for x, v in inc.items()},
    )


def hom_before(c, out, x, y):
    """``hom`` on the cached ``_out`` dict ``out``."""
    return tuple(m for m in out.get(x, ()) if c.dst[m] == y)


def sd_category_before(c):
    bad = validate_category(c)
    if bad:
        raise ValueError("invalid category: " + "; ".join(bad))
    out, _ = adjacency_before(c)
    layers = chain_layers(c.morphisms, {m: out[c.dst[m]] for m in c.morphisms})
    chains = [chain for layer in layers for chain in layer]
    elements = [("o", x) for x in c.objects]
    elements.extend(("m",) + chain for chain in chains)
    index = {e: i for i, e in enumerate(elements)}
    grades = {i: len(e) - 1 if e[0] == "m" else 0 for i, e in enumerate(elements)}
    labels = dict(enumerate(elements))
    less = []
    for j, chain in enumerate(chains, start=len(c.objects)):
        objs = (c.src[chain[0]],) + tuple(c.dst[m] for m in chain)
        n = len(chain)
        comp = {}
        for i in range(n):
            comp[(i, i + 1)] = chain[i]
            for k in range(i + 2, n + 1):
                comp[(i, k)] = c.compose[(chain[k - 1], comp[(i, k - 1)])]
        for k in range(1, len(objs)):
            for pos in itertools.combinations(range(len(objs)), k):
                if k == 1:
                    sub = ("o", objs[pos[0]])
                else:
                    sub = ("m",) + tuple(comp[ij] for ij in zip(pos, pos[1:]))
                less.append((index[sub], j))
    return Poset.from_relation(range(len(elements)), less, grades, labels)


def dump_category_before(c):
    oid = {x: i for i, x in enumerate(c.objects)}
    mid = {m: i for i, m in enumerate(c.morphisms)}
    objects = []
    for x in c.objects:
        entry = {"id": oid[x], "label": str(x)}
        if x in c.grades:
            entry["grade"] = c.grades[x]
        objects.append(entry)
    morphisms = [
        {"id": mid[m], "src": oid[c.src[m]], "dst": oid[c.dst[m]], "label": str(m)}
        for m in c.morphisms
    ]
    compose = [
        [mid[g], mid[f], mid[gf]]
        for (g, f), gf in sorted(
            c.compose.items(), key=lambda kv: (mid[kv[0][0]], mid[kv[0][1]])
        )
    ]
    return {"objects": objects, "morphisms": morphisms, "compose": compose}


def dump_css_before(x):
    out = dump_category_before(x.cat)
    oid = {v: i for i, v in enumerate(x.cat.objects)}
    out["dims"] = {str(oid[v]): x.cat.grades[v] for v in x.cells()}
    out["closed"] = {str(oid[v]): x.closed[v] for v in x.cells()}
    return out


def link_before(c, x):
    """The table as the id-keyed copy built it (source grades, then one
    pair per morphism c), with the pairs replaced by their closure as the
    table now holds it: the covers, then each element's strict down-set
    as a sorted tuple, closed and reduced by ``from_relation_before``."""
    _, inc = adjacency_before(c)
    mids = inc[x]
    index = {m: i for i, m in enumerate(mids)}
    grades = tuple(c.grades[c.src[m]] for m in mids)
    less = [
        (index[c.compose[(b, piece)]], j)
        for j, b in enumerate(mids)
        for piece in inc[c.src[b]]
    ]
    p = from_relation_before(range(len(mids)), less)
    return grades, (p.covers, tuple(tuple(sorted(p._down[e])) for e in p.elements))


# --- comparison -------------------------------------------------------------


def outcome(f, *args):
    """What f returns, or the type and arguments of what it raises."""
    try:
        return ("returned", f(*args))
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc).__name__, exc.args)


def shape(p):
    """Everything a poset holds, dict orders included, with the cached
    down-sets and the valid-order mark."""
    return (
        p.elements,
        p.covers,
        tuple(p.grades.items()),
        tuple(p.labels.items()),
        tuple(p.__dict__.get("_down", {}).items()),
        p.__dict__.get("_order_valid"),
    )


def fresh(c):
    """An equal category with nothing cached on it."""
    return AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, c.compose, c.grades)


# --- inputs -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fixture(name):
    return CSS_FIXTURES[name]()


def _quotient(g, k):
    x = conf_category(g, k)
    return quotient_css(x, sigma_action(x, k))


SPACES = {f"fixture {n}": functools.partial(fixture, n) for n in CSS_FIXTURES}
SPACES.update(
    {
        f"dual {n}": functools.partial(lambda n: dual(fixture(n)), n)
        for n in CSS_FIXTURES
    }
)
SPACES.update(
    {
        f"product {a} x {b}": functools.partial(
            lambda a, b: product_css(fixture(a), fixture(b)), a, b
        )
        for a, b in (
            ("circle-minimal", "simplex-1"),
            ("rp2", "circle-minimal"),
            ("y-space", "simplex-2"),
            ("simplex-2", "simplex-2"),
        )
    }
)
SPACES.update(
    {
        "conf edge 2": lambda: conf_category(edge_graph(), 2),
        "conf loop 3": lambda: conf_category(loop_graph(), 3),
        "conf y 2": lambda: conf_category(y_graph(), 2),
        "conf cycle3 2": lambda: conf_category(cycle_graph(3), 2),
        "conf k5 2": lambda: conf_category(k5_graph(), 2),
        "quotient loop 2": lambda: _quotient(loop_graph(), 2),
        "quotient y 2": lambda: _quotient(y_graph(), 2),
        "quotient y 3": lambda: _quotient(y_graph(), 3),
        "unordered conf k5 2": lambda: unordered_conf(k5_graph(), 2),
    }
)
# products of bare categories, not of spaces: their grades are summed or
# absent, and a product of a category with itself repeats no id
CATEGORIES = {
    "category circle-minimal x rp2": lambda: product_category(
        fixture("circle-minimal").cat, fixture("rp2").cat
    ),
    "category y-space x y-space": lambda: product_category(
        fixture("y-space").cat, fixture("y-space").cat
    ),
}


@functools.lru_cache(maxsize=None)
def space(name):
    return SPACES[name]()


@functools.lru_cache(maxsize=None)
def category(name):
    return CATEGORIES[name]() if name in CATEGORIES else space(name).cat


NAMES = sorted(SPACES) + sorted(CATEGORIES)


@st.composite
def repeated_morphism_ids(draw):
    """A space's face category with some morphism ids listed again: its
    links are defined by ids, though validation rejects it."""
    c = category(draw(st.sampled_from(["fixture rp2", "fixture torus", "conf y 2"])))
    again = draw(st.lists(st.sampled_from(c.morphisms), min_size=1, max_size=3))
    return AcyclicCategory(
        c.objects, c.morphisms + tuple(again), c.src, c.dst, c.compose, c.grades
    )


# --- the subdivision poset --------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_sd_category_as_before(name):
    c = category(name)
    got, want = sd_category(fresh(c)), sd_category_before(fresh(c))
    assert shape(got) == shape(want)
    assert {e: got.down_set(e) for e in got.elements} == {
        e: want.down_set(e) for e in want.elements
    }


@settings(max_examples=60, deadline=None)
@given(perturbed_categories())
def test_sd_category_as_before_on_perturbed_tables(c):
    got = outcome(lambda: shape(sd_category(fresh(c))))
    assert got == outcome(lambda: shape(sd_category_before(fresh(c))))


@settings(max_examples=100, deadline=None)
@given(digraph_categories_with_repeats())
def test_sd_category_as_before_on_random_digraphs(c):
    got = outcome(lambda: shape(sd_category(fresh(c))))
    assert got == outcome(lambda: shape(sd_category_before(fresh(c))))


# --- adjacency --------------------------------------------------------------


def assert_adjacency_as_before(c):
    out, inc = adjacency_before(c)
    for x in c.objects:
        assert c.out_morphisms(x) == out[x]
        assert c.in_morphisms(x) == inc[x]
        for y in c.objects + ("no such object",):
            assert c.hom(x, y) == hom_before(c, out, x, y)
    assert c.hom("no such object", c.objects[0]) == ()
    assert outcome(c.out_morphisms, "no such object") == (
        "raised",
        "KeyError",
        ("no such object",),
    )
    assert outcome(c.in_morphisms, "no such object") == outcome(
        lambda: inc["no such object"]
    )


@pytest.mark.parametrize("name", NAMES)
def test_adjacency_as_before(name):
    assert_adjacency_as_before(fresh(category(name)))


@settings(max_examples=300, deadline=None)
@given(digraph_categories_with_repeats())
def test_adjacency_as_before_on_repeats_and_cycles(c):
    assert_adjacency_as_before(c)


def test_an_endpoint_outside_the_objects_raises_from_the_numbering():
    # the numbering needs both endpoints of every morphism among the
    # objects, so each accessor raises its KeyError; the id-keyed dicts
    # raised it only for the side (out or in) that read the endpoint
    c = AcyclicCategory(("x",), ("f",), {"f": "x"}, {"f": "y"}, {})
    assert outcome(c.in_morphisms, "x") == outcome(lambda: adjacency_before(c))
    assert outcome(c.out_morphisms, "x") == ("raised", "KeyError", ("y",))
    assert outcome(c.hom, "x", "x") == ("raised", "KeyError", ("y",))


# --- exports ----------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_dump_category_as_before(name):
    c = category(name)
    assert sio.dump_category(fresh(c)) == dump_category_before(c)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_dump_css_as_before(name):
    x = space(name)
    y = CombinatorialCSS(fresh(x.cat), dict(x.closed))
    assert sio.dump_css(y) == dump_css_before(x)


@settings(max_examples=200, deadline=None)
@given(digraph_categories_with_repeats())
def test_dump_category_as_before_on_repeats_and_cycles(c):
    assert sio.dump_category(c) == dump_category_before(c)


@settings(max_examples=100, deadline=None)
@given(perturbed_categories())
def test_dump_category_on_perturbed_tables(c):
    # an entry naming an unknown id raises the KeyError of that id
    assert outcome(sio.dump_category, fresh(c)) == outcome(dump_category_before, c)


@pytest.mark.parametrize("where", [(0, 1), (1, 0), (0, 2), (2, 0), (2, 2), (1, 2)])
def test_dump_category_raises_the_first_unknown_id(where):
    # two entries name unknown ids; the one the old sort key or the old
    # composite lookup met first is raised
    c = category("conf y 2")
    items = list(c.compose.items())
    for n, (i, slot) in enumerate(zip((0, len(items) - 1), where)):
        (g, f), gf = items[i]
        ghost = ("no such morphism", n)
        key = (ghost, f) if slot == 0 else (g, ghost) if slot == 1 else (g, f)
        items[i] = (key, ghost if slot == 2 else gf)
    c = AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, dict(items), c.grades)
    want = outcome(dump_category_before, c)
    assert want[1] == "KeyError"
    assert outcome(sio.dump_category, fresh(c)) == want


# --- the link table ---------------------------------------------------------


def assert_links_as_before(c):
    for x in c.objects:
        assert outcome(c._link, x) == outcome(link_before, c, x)


@pytest.mark.parametrize("name", NAMES)
def test_links_as_before(name):
    assert_links_as_before(fresh(category(name)))


@settings(max_examples=100, deadline=None)
@given(perturbed_categories())
def test_links_as_before_on_perturbed_tables(c):
    assert_links_as_before(fresh(c))


@settings(max_examples=60, deadline=None)
@given(repeated_morphism_ids())
def test_links_as_before_on_repeated_morphism_ids(c):
    assert_links_as_before(c)
