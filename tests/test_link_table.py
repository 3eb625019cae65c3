"""The link table and the constant-cost trivial posets.

``link_poset`` reads each cell's grades and closed relation from a table
cached on the face category (``AcyclicCategory._link``). It is compared
with a copy of the function that rebuilt them on every call: elements,
covers, grades, labels and down-sets; each table entry must be the source
grades and that copy's closure, down-sets as sorted tuples, and must equal
a copy of the per-cell ``_link`` that read every pair through the ids and
closed every cell's relation itself. Cells with equal relations share one
closure object, and building a configuration space closes each distinct
relation once. Inputs are fixtures, products, duals, configuration spaces
and their quotients, also with a composite dropped or redirected or a
morphism id repeated; the table of a fresh category is first filled by
the computed closed flags of ``make_css``.

``Poset.from_relation`` with an empty relation on distinct elements, and
``order_complex`` on an antichain, skip the closure and the chain layers;
both are compared with copies of the general path, also on repeated ids,
partial grades and the empty poset. ``make_css`` without flags on an
invalid face category, or on a valid one with a cell without a dimension
or a lift that lowers dimension, raises the validation's ValueError.
"""

import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stratakit.css as css
from stratakit import category as cat_ops
from stratakit.arrangement import braid_arrangement, symmetric_subdivision
from stratakit.category import AcyclicCategory
from stratakit.css import (
    CombinatorialCSS,
    dual,
    link_poset,
    make_css,
    product_css,
    quotient_css,
)
from stratakit.delta import DeltaComplex
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
from stratakit.poset import (
    Poset,
    _closure,
    _strict_down,
    order_complex,
    validate_poset,
)
from test_poset_kernels import chain_layers


# --- the code as it was before the table and the fast paths ----------------


def from_relation_before(elements, less, grades=None, labels=None):
    elems = tuple(elements)
    down = _strict_down(elems, less)
    covers = []
    for hi in elems:
        below = down[hi]
        if below:
            shadow = set().union(*map(down.__getitem__, below))
            covers.extend((lo, hi) for lo in below - shadow)
    p = Poset(
        elems,
        tuple(sorted(covers, key=repr)),
        dict(grades) if grades else {},
        dict(labels) if labels else {},
    )
    if len(down) == len(elems):
        p.__dict__["_down"] = {e: frozenset(s) for e, s in down.items()}
        p.__dict__["_order_valid"] = True
    return p


def link_poset_before(x, cell):
    c = x.cat
    mids = list(c.in_morphisms(cell))
    index = {m: i for i, m in enumerate(mids)}
    less = []
    for b in mids:
        for piece in c.in_morphisms(c.src[b]):
            less.append((index[c.compose[(b, piece)]], index[b]))
    grades = {index[m]: c.grades[c.src[m]] for m in mids}
    labels = {index[m]: m for m in mids}
    return from_relation_before(range(len(mids)), less, grades, labels)


def link_table_before(x, cell):
    """A link table entry from the poset ``link_poset_before`` builds: the
    source grades, then the covers and each element's strict down-set as
    a sorted tuple."""
    p = link_poset_before(x, cell)
    down = tuple(tuple(sorted(p._down[e])) for e in p.elements)
    return tuple(p.grades.values()), (p.covers, down)


def link_relation_before(c, cell):
    """The source grades and the relation (element count, pairs) of the
    per-cell ``_link`` before the shared closures: each pair read through
    the ids, one ``compose`` lookup per pair."""
    ix = c._index
    mids, inc, src = ix.inc[ix.obj[cell]], ix.inc, ix.src
    ids, objects, compose = c.morphisms, c.objects, c.compose
    index = {ids[m]: i for i, m in enumerate(mids)}
    grades = tuple(c.grades[objects[src[m]]] for m in mids)
    pairs = [
        (index[compose[(ids[b], ids[piece])]], j)
        for j, b in enumerate(mids)
        for piece in inc[src[b]]
    ]
    return grades, (len(mids), tuple(pairs))


def link_entry_before(c, cell):
    """The link table entry the per-cell ``_link`` computed: the source
    grades and its own closure of the cell's relation."""
    grades, (k, pairs) = link_relation_before(c, cell)
    return grades, _closure(range(k), list(pairs))


def order_complex_before(p):
    bad = validate_poset(p)
    if bad:
        raise ValueError("invalid poset: " + "; ".join(bad))
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


# --- comparison -----------------------------------------------------------


def shape(p):
    """Everything a poset holds, dict orders included; the cached closure
    and the valid-order mark only where from_relation set them."""
    return (
        p.elements,
        p.covers,
        tuple(p.grades.items()),
        tuple(p.labels.items()),
        p.__dict__.get("_down"),
        p.__dict__.get("_order_valid"),
    )


def outcome(f, *args):
    """What f returns, or the type and arguments of what it raises."""
    try:
        return ("returned", f(*args))
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc).__name__, exc.args)


def fresh(c):
    """An equal category with nothing cached on it."""
    return AcyclicCategory(
        c.objects, c.morphisms, c.src, c.dst, c.compose, c.grades
    )


# --- inputs ---------------------------------------------------------------

FACTORS = ("circle-minimal", "rp2", "simplex-1", "simplex-2", "y-space")


@functools.lru_cache(maxsize=None)
def fixture(name):
    return CSS_FIXTURES[name]()


def _quotient(g, k):
    x = conf_category(g, k)
    return quotient_css(x, sigma_action(x, k))


BASES = {f"fixture {n}": functools.partial(fixture, n) for n in CSS_FIXTURES}
BASES.update(
    {
        f"product {a} x {b}": functools.partial(
            lambda a, b: product_css(fixture(a), fixture(b)), a, b
        )
        for a, b in itertools.combinations_with_replacement(FACTORS, 2)
    }
)
BASES.update(
    {
        f"dual {n}": functools.partial(lambda n: dual(fixture(n)), n)
        for n in CSS_FIXTURES
    }
)
BASES.update(
    {
        "conf edge 2": lambda: conf_category(edge_graph(), 2),
        "conf loop 3": lambda: conf_category(loop_graph(), 3),
        "conf y 2": lambda: conf_category(y_graph(), 2),
        "conf cycle3 2": lambda: conf_category(cycle_graph(3), 2),
        "conf k5 2": lambda: conf_category(k5_graph(), 2),
        "quotient loop 2": lambda: _quotient(loop_graph(), 2),
        "quotient y 2": lambda: _quotient(y_graph(), 2),
        "quotient cycle3 2": lambda: _quotient(cycle_graph(3), 2),
        "quotient y 3": lambda: _quotient(y_graph(), 3),
        "unordered conf k5 2": lambda: unordered_conf(k5_graph(), 2),
    }
)


@functools.lru_cache(maxsize=None)
def base(name):
    return BASES[name]()


def redirect_composite(c, i):
    """The category with its i-th composition entry (mod their count)
    pointing at another morphism: its links may gain a cycle or a pair
    with a composite outside them."""
    entries = list(c.compose)
    if not entries or len(c.morphisms) < 2:
        return c
    key = entries[i % len(entries)]
    others = [m for m in c.morphisms if m != c.compose[key]]
    compose = dict(c.compose)
    compose[key] = others[(i // len(entries)) % len(others)]
    return AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, compose, c.grades)


def repeat_id(c, i):
    """The category with the i-th morphism id (mod their count) also at a
    second position: the numbering gives it the later one, so the earlier
    position has no ``comp`` key."""
    if not c.morphisms:
        return c
    mids = list(c.morphisms)
    m = mids[i % len(mids)]
    mids.insert((i // len(mids)) % (len(mids) + 1), m)
    return AcyclicCategory(c.objects, tuple(mids), c.src, c.dst, c.compose, c.grades)


def drop_composite(c, i):
    """The category without its i-th composition entry (mod their count):
    invalid, and its links are undefined where the entry was needed."""
    entries = list(c.compose)
    if not entries:
        return c
    gone = entries[i % len(entries)]
    return AcyclicCategory(
        c.objects,
        c.morphisms,
        c.src,
        c.dst,
        {k: v for k, v in c.compose.items() if k != gone},
        c.grades,
    )


PERTURB = {
    "none": lambda c, i: c,
    "drop a composite": drop_composite,
    "redirect a composite": redirect_composite,
    "repeat an id": repeat_id,
}


# --- the link table ---------------------------------------------------------


def assert_links_as_before(c, x_before):
    """Each cell's link poset and table entry as the per-cell code before
    gave them, and one closure object per distinct relation."""
    x = CombinatorialCSS(c, dict(x_before.closed))
    # the code before the table keyed grades and labels by the index of an
    # id, so it merged the positions of a repeated id; the table and the
    # per-cell _link keep one element per position
    distinct = len(set(c.morphisms)) == len(c.morphisms)
    shared = {}
    for cell in c.objects:
        got = outcome(lambda: shape(link_poset(x, cell)))
        if distinct:
            assert got == outcome(lambda: shape(link_poset_before(x_before, cell)))
        entry = outcome(c._link, cell)
        assert entry == outcome(link_entry_before, fresh(c), cell)
        if got[0] == "returned":
            lk = link_poset(x, cell)
            assert {e: lk.down_set(e) for e in lk.elements} == {
                e: frozenset(s)
                for e, s in _strict_down(lk.elements, lk.covers).items()
            }
            _, relation = link_relation_before(c, cell)
            assert shared.setdefault(relation, entry[1][1]) is entry[1][1]
        else:  # a failed fill leaves no entry behind
            assert cell not in c._links
    assert len({id(closed) for closed in shared.values()}) == len(shared)


class TestLinkTable:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_filled_by_the_computed_flags(self, name):
        x = base(name)
        c = fresh(x.cat)
        assert "_links" not in c.__dict__
        flags = css._computed_closed_flags(c)
        assert set(c._links) == set(c.objects)
        assert flags == make_css(x.cat).closed
        # the source grades and the reference closure, down-sets as tuples
        for cell, entry in c._links.items():
            assert entry == link_table_before(x, cell)
        assert_links_as_before(c, x)

    def test_each_cell_is_computed_once(self):
        x = base("product rp2 x simplex-2")
        c = fresh(x.cat)
        first = {cell: c._link(cell) for cell in c.objects}
        y = CombinatorialCSS(c, dict(x.closed))
        for cell in c.objects:
            link_poset(y, cell)
            assert c._links[cell] is first[cell]

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(sorted(BASES)),
        st.sampled_from(sorted(PERTURB)),
        st.integers(0, 10**6),
    )
    # pinned: links through a repeated id, and failed fills of the id path
    @example("product rp2 x simplex-2", "repeat an id", 7)
    @example("conf k5 2", "redirect a composite", 37)
    @example("conf k5 2", "drop a composite", 0)
    def test_links_as_before(self, name, how, i):
        x = base(name)
        c = PERTURB[how](fresh(x.cat), i)
        css._computed_closed_flags(c)
        assert_links_as_before(c, CombinatorialCSS(c, dict(x.closed)))

    def test_one_closure_per_distinct_relation(self, monkeypatch):
        closed = []

        def counted(elements, pairs):
            closed.append((len(elements), tuple(pairs)))
            return _closure(elements, pairs)

        monkeypatch.setattr(cat_ops, "_closure", counted)
        c = conf_category(k5_graph(), 2).cat
        # the computed flags of make_css filled the table
        assert set(c._links) == set(c.objects)
        relations = {cell: link_relation_before(c, cell)[1] for cell in c.objects}
        assert sorted(closed) == sorted(set(relations.values()))
        assert len(closed) < len(c.objects) // 4
        first = {}
        for cell, relation in relations.items():
            first.setdefault(relation, cell)
            # the same object as the first cell with this relation
            assert c._links[cell][1] is c._links[first[relation]][1]
            assert c._links[cell] == link_entry_before(c, cell)


class TestComputedFlagsOnAnInvalidCategory:
    """a < b < c with the composite bc . ab missing."""

    @staticmethod
    def interval_without_composite():
        return AcyclicCategory(
            ("a", "b", "c"),
            ("ab", "bc", "ac"),
            {"ab": "a", "bc": "b", "ac": "a"},
            {"ab": "b", "bc": "c", "ac": "c"},
            {},
            {"a": 0, "b": 1, "c": 2},
        )

    def test_make_css_raises_the_validation_error(self):
        c = self.interval_without_composite()
        message = (
            "not a totally normal encoding: face category: missing "
            "composition entry for ('bc','ab')"
        )
        for closed in (None, {cell: False for cell in c.objects}):
            with pytest.raises(ValueError) as err:
                make_css(c, closed)
            assert str(err.value) == message

    def test_flags_are_false_without_a_counted_call(self, monkeypatch):
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)

            return wrapper

        monkeypatch.setattr(
            cat_ops,
            "validate_category",
            counted("validate_category", cat_ops.validate_category),
        )
        monkeypatch.setattr(css, "link_poset", counted("link_poset", link_poset))
        c = self.interval_without_composite()
        assert css._computed_closed_flags(c) == dict.fromkeys(c.objects, False)
        assert calls == []


class TestComputedFlagsOnABadGrading:
    """A valid face category whose grading is not: a cell without a
    dimension, or a lift that lowers dimension inside a link."""

    CASES = [
        (
            AcyclicCategory(
                ("a", "b"), ("ab",), {"ab": "a"}, {"ab": "b"}, {}, {"a": 0}
            ),
            "cell 'b': no dimension assigned",
        ),
        (
            AcyclicCategory(
                ("x", "y", "z"),
                ("xy", "yz", "xz"),
                {"xy": "x", "yz": "y", "xz": "x"},
                {"xy": "y", "yz": "z", "xz": "z"},
                {("yz", "xy"): "xz"},
                {"x": 1, "y": 0, "z": 2},
            ),
            "morphism 'xy': lift does not strictly raise dimension",
        ),
    ]

    @pytest.mark.parametrize("c, problem", CASES)
    def test_make_css_raises_the_validation_error(self, c, problem):
        assert cat_ops.validate_category(c) == []
        for closed in (None, {cell: False for cell in c.objects}):
            with pytest.raises(ValueError) as err:
                make_css(c, closed)
            assert str(err.value) == "not a totally normal encoding: " + problem

    @pytest.mark.parametrize("c, problem", CASES)
    def test_flags_are_false_without_a_link(self, c, problem, monkeypatch):
        def no_link(*args):
            raise AssertionError("link_poset called")

        monkeypatch.setattr(css, "link_poset", no_link)
        assert css._computed_closed_flags(c) == dict.fromkeys(c.objects, False)


# --- constant-cost trivial posets ---------------------------------------------


@st.composite
def antichains(draw):
    """Element ids (repeats allowed), grades on all, some or none of them,
    labels or none, and the container the (empty) relation comes in."""
    ids = draw(st.lists(st.integers(-4, 4), max_size=6))
    graded = draw(st.sampled_from(["all", "some", "none"]))
    if graded == "all":
        grades = {e: draw(st.integers(0, 2)) for e in ids}
    elif graded == "some":
        grades = {e: 0 for e in ids if draw(st.booleans())}
    else:
        grades = None
    labels = {e: f"v{e}" for e in ids} if draw(st.booleans()) else None
    container = draw(st.sampled_from([list, tuple, iter]))
    return ids, grades, labels, container


class TestTrivialPosets:
    @settings(max_examples=300, deadline=None)
    @given(antichains())
    def test_empty_relation_as_the_general_path(self, drawn):
        ids, grades, labels, container = drawn
        p = Poset.from_relation(container(ids), container([]), grades, labels)
        q = from_relation_before(ids, [], grades, labels)
        assert shape(p) == shape(q)
        assert validate_poset(p) == validate_poset(q)
        got = outcome(order_complex, p)
        assert got == outcome(order_complex_before, q)
        assert got == outcome(order_complex_before, p)

    @settings(max_examples=200, deadline=None)
    @given(antichains())
    def test_hand_built_antichains_as_the_general_path(self, drawn):
        # not from from_relation, so validate_poset checks everything
        ids, grades, _, _ = drawn
        p = Poset(tuple(ids), (), dict(grades or {}))
        assert outcome(order_complex, p) == outcome(order_complex_before, p)

    def test_empty_poset(self):
        p = Poset.from_relation([], [])
        assert shape(p) == shape(from_relation_before([], []))
        kom = order_complex(p)
        assert kom.cells == () and kom.faces == ()
        assert not css._sphere_homology_ok(p, 1)
        assert css._sphere_homology_ok(p, 0)

    def test_two_point_antichain_is_the_zero_sphere(self):
        p = Poset.from_relation([7, 3], [], {7: 0, 3: 0})
        assert order_complex(p) == DeltaComplex((((3,), (7,)),), ())
        assert css._sphere_homology_ok(p, 1)
        assert not css._sphere_homology_ok(p, 2)


# --- symmetric_subdivision by per-level covers ----------------------------------


def test_braid4_symmetric_subdivision_from_its_covers(monkeypatch):
    """braid(4) at order 2: 75 x 75 strata. The relation passed to
    from_relation is exactly the covers of the product order (each pair
    replaces one level's face by a lower cover), not a test of every pair
    of the 5625 strata."""
    relations = []
    from_relation = Poset.__dict__["from_relation"].__func__

    def spy(cls, elements, less, *rest):
        relations.append(list(less))
        return from_relation(cls, elements, relations[-1], *rest)

    monkeypatch.setattr(Poset, "from_relation", classmethod(spy))
    p = symmetric_subdivision(braid_arrangement(4), 2)
    assert len(p.elements) == 5625
    assert len(p.covers) == 23700
    assert sorted(relations[-1]) == sorted(p.covers)
