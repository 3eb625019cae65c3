"""One closure per link.

``AcyclicCategory._link`` keeps each cell's link closed: its source
grades and a ``poset._Closed`` (the covers and every element's strict
down-set) made by ``poset._closure`` once per cell. ``link_poset`` hands
that closure to ``Poset.from_relation``, and
``_closed_cell_problems`` builds each lower interval from the link's
closure (``poset._lower_intervals``); neither closes a relation again.

Both are compared with the general path on the raw relation:
- every first and repeated link poset, and every lower interval, must
  equal ``from_relation_before`` on the relation it was built from
  (elements, covers, grades, labels, down-sets and the valid-order mark),
  or raise the same exception, and a failed fill leaves no table entry;
- every validation, computed flag pass and ``make_css`` must log the same
  calls, in the same order and with equal results, as a reference that
  builds links and intervals from their raw relations (the code before
  the closed table), runs each sphere test with a fresh memo and checks
  lifts by id: each ``link_poset`` and ``Poset.from_relation`` with the
  poset it returned, each ``order_complex`` and ``chain_complex`` with
  the sizes of what it returned, and the diagnostics.

Inputs are the fixtures, their duals, RP^2 x RP^2, RP^2 x S^2, Conf_2 of
Y and K4 with their quotients, and the perturbed tables of
``test_link_table`` (a dropped composition entry) and of
``test_complex_memo`` (a raised or a dropped grade, a dropped morphism).
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stratakit.css as css
from stratakit.category import AcyclicCategory
from stratakit.css import (
    CombinatorialCSS,
    dual,
    link_poset,
    make_css,
    product_css,
    quotient_css,
    validate_total_normality,
)
from stratakit.fixtures import CSS_FIXTURES, rp2
from stratakit.graphconf import Graph, conf_category, sigma_action, y_graph
from stratakit.homology import chain_complex
from stratakit.poset import Poset, _Closed, _lower_intervals, order_complex
from test_complex_memo import PERTURBATIONS
from test_link_table import drop_composite, from_relation_before, outcome, shape


def fresh(c):
    """An equal category with nothing cached on it."""
    return AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, c.compose, c.grades)


# --- the code before the closed table ----------------------------------------


def raw_link(x, cell):
    """The link's elements, raw relation (one pair per morphism c with
    b_i = b_j . c), grades and labels, looked up by ids."""
    c = x.cat
    mids = list(c.in_morphisms(cell))
    index = {m: i for i, m in enumerate(mids)}
    grades = {i: c.grades[c.src[m]] for i, m in enumerate(mids)}
    less = [
        (index[c.compose[(b, piece)]], j)
        for j, b in enumerate(mids)
        for piece in c.in_morphisms(c.src[b])
    ]
    return range(len(mids)), less, grades, dict(enumerate(mids))


def link_poset_before(x, cell):
    """``link_poset`` closing the raw relation on every call."""
    return Poset.from_relation(*raw_link(x, cell))


def closed_cell_link_ok_before(p, n, problems, tag, memo):
    """The closed-cell check closing each interval's covers again, adding
    its diagnostics with the prefix ``f"{tag}: "`` to ``problems``."""
    if not css._sphere_homology_ok(p, n, memo):
        problems.append(
            f"{tag}: link is not a homology ({n - 1})-sphere as required "
            "for a closed cell"
        )
        return
    if set(p.grades.values()) != set(range(n)) and n > 0:
        problems.append(f"{tag}: link grades do not fill 0..{n - 1}")
    if not css._diamond_ok(p):
        problems.append(f"{tag}: link violates the diamond property")
    covers_under = {e: [] for e in p.elements}
    for a, b in p.covers:
        covers_under[b].append((a, b))
    for e in p.elements:
        g = p.grades[e]
        below = sorted(p.down_set(e))
        if not below:
            sphere = g == 0
        else:
            sub = Poset.from_relation(
                below,
                [ab for b in below for ab in covers_under[b]],
                {a: p.grades[a] for a in below},
            )
            sphere = css._sphere_homology_ok(sub, g, memo)
        if not sphere:
            problems.append(
                f"{tag}: lower interval under a grade-{g} boundary cell is "
                "not a homology sphere"
            )
            return


def closed_cell_problems_before(p, n, memo):
    """``closed_cell_link_ok_before``'s diagnostics, without a prefix."""
    problems = []
    closed_cell_link_ok_before(p, n, problems, "", memo)
    return [d.removeprefix(": ") for d in problems]


def grading_problems_before(c, closed):
    """``_grading_problems`` comparing grades looked up by ids."""
    problems = css._missing_grading(c, closed)
    if problems:
        return problems
    return [
        f"morphism {m!r}: lift does not strictly raise dimension"
        for m in c.morphisms
        if c.grades[c.src[m]] >= c.grades[c.dst[m]]
    ]


# --- inputs -------------------------------------------------------------------


def k4_graph():
    edges = tuple(((i, j), (i, j)) for i in range(4) for j in range(i + 1, 4))
    return Graph(tuple(range(4)), edges)


def with_quotient(g):
    x = conf_category(g, 2)
    return x, quotient_css(x, sigma_action(x, 2))


@functools.lru_cache(maxsize=None)
def fixture(name):
    return CSS_FIXTURES[name]()


BASES = {f"fixture {n}": functools.partial(fixture, n) for n in CSS_FIXTURES}
BASES.update(
    {
        f"dual {n}": functools.partial(lambda n: dual(fixture(n)), n)
        for n in CSS_FIXTURES
    }
)
BASES.update(
    {
        "rp2 x rp2": lambda: product_css(rp2(), rp2()),
        "rp2 x sphere": lambda: product_css(rp2(), fixture("boundary-simplex-3")),
        "conf y 2": lambda: with_quotient(y_graph())[0],
        "quotient y 2": lambda: with_quotient(y_graph())[1],
        "conf k4 2": lambda: with_quotient(k4_graph())[0],
        "quotient k4 2": lambda: with_quotient(k4_graph())[1],
    }
)
# the two products take a second or more per logged comparison
SMALL = sorted(n for n in BASES if not n.startswith("rp2 x"))


@functools.lru_cache(maxsize=None)
def base(name):
    return BASES[name]()


def perturbed(name, how, i):
    x = base(name)
    if how == "drop a composite":
        c = drop_composite(x.cat, i)
        return CombinatorialCSS(c, dict(x.closed))
    return PERTURBATIONS[how](x, i)


HOWS = ["drop a composite", *sorted(PERTURBATIONS)]


# --- link posets and lower intervals ----------------------------------------------


def assert_closed_as_raw(x):
    """Every link poset of x, asked for twice over a fresh copy of its
    category, and every lower interval of it, as the raw relation's."""
    c = fresh(x.cat)
    y = CombinatorialCSS(c, dict(x.closed))
    for cell in c.objects:
        want = outcome(lambda: shape(from_relation_before(*raw_link(x, cell))))
        for _ in range(2):
            assert outcome(lambda: shape(link_poset(y, cell))) == want
        if want[0] == "raised":
            assert cell not in c._links
            continue
        lk = link_poset(y, cell)
        _, less, _, _ = raw_link(x, cell)
        for e, below, closed in _lower_intervals(lk):
            assert below == sorted(lk.down_set(e))
            grades = {a: lk.grades[a] for a in below}
            inside = set(below)
            sub = Poset.from_relation(below, closed, grades)
            # a down-closed interval is generated by the raw pairs in it
            raw = [(a, b) for a, b in less if b in inside]
            assert shape(sub) == shape(from_relation_before(below, raw, grades))


class TestAsTheRawRelation:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_every_input(self, name):
        assert_closed_as_raw(base(name))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SMALL), st.sampled_from(HOWS), st.integers(0, 10**6))
    def test_perturbed_inputs(self, name, how, i):
        assert_closed_as_raw(perturbed(name, how, i))

    def test_the_table_holds_the_closure(self):
        """A 2-simplex's 2-cell: 6 elements, 6 covers, 6 comparable pairs."""
        x = base("fixture simplex-2")
        c = fresh(x.cat)
        cell = max(c.objects, key=c.grades.__getitem__)
        link = c._link(cell)
        lk = link_poset(CombinatorialCSS(c, x.closed), cell)
        k = len(lk.elements)
        assert (k, len(lk.covers)) == (6, 6)
        # the source grades, then the reference closure of the raw relation
        grades, closed = link
        assert type(closed) is _Closed
        ref = from_relation_before(*raw_link(x, cell))
        assert grades == tuple(ref.grades[i] for i in range(k))
        down = tuple(tuple(sorted(ref._down[e])) for e in ref.elements)
        assert closed == (ref.covers, down)
        assert sum(map(len, closed.down)) == 6
        # the poset shares the table's covers
        assert lk.covers is closed.covers
        assert c._link(cell) is link


class TestFailedFills:
    @staticmethod
    def looped():
        """b: z -> x and c: y -> z with b . c recorded as b itself: the
        link of x relates b to itself, a cycle."""
        return AcyclicCategory(
            ("y", "z", "x"),
            ("c", "b", "bc"),
            {"c": "y", "b": "z", "bc": "y"},
            {"c": "z", "b": "x", "bc": "x"},
            {("b", "c"): "b"},
            {"y": 0, "z": 1, "x": 2},
        )

    def test_a_cycle_raises_as_the_raw_relation_and_keeps_no_entry(self):
        c = self.looped()
        x = CombinatorialCSS(c, dict.fromkeys(c.objects, True))
        want = outcome(lambda: from_relation_before(*raw_link(x, "x")))
        assert want == ("raised", "ValueError", ("relation contains a cycle",))
        for _ in range(2):
            assert outcome(link_poset, x, "x") == want
            assert "x" not in c._links

    def test_a_missing_composite_raises_its_key_and_keeps_no_entry(self):
        x = base("fixture simplex-2")
        c = drop_composite(fresh(x.cat), 0)
        y = CombinatorialCSS(c, dict(x.closed))
        failed = [
            cell for cell in c.objects if outcome(link_poset, y, cell)[0] == "raised"
        ]
        assert failed
        for cell in failed:
            got = outcome(link_poset, y, cell)
            assert got[1] == "KeyError"
            assert got == outcome(lambda: from_relation_before(*raw_link(y, cell)))
            assert cell not in c._links


# --- logged calls against the reference -------------------------------------------


@pytest.fixture
def logged(monkeypatch):
    """Log each call of ``link_poset``, ``Poset.from_relation``,
    ``order_complex`` and ``chain_complex`` on the validation path with
    what it returned. ``logged(reference=True)`` swaps in the code before
    the closed table and a fresh memo per sphere test."""
    log = []
    current = {
        "link_poset": css.link_poset,
        "_closed_cell_problems": css._closed_cell_problems,
        "_grading_problems": css._grading_problems,
    }
    before = {
        "link_poset": link_poset_before,
        "_closed_cell_problems": closed_cell_problems_before,
        "_grading_problems": grading_problems_before,
    }
    sphere_ok = css._sphere_homology_ok

    def wrap(name, f, what):
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            log.append((name, what(out)))
            return out

        return wrapper

    from_relation = Poset.__dict__["from_relation"].__func__
    monkeypatch.setattr(
        Poset, "from_relation", classmethod(wrap("from_relation", from_relation, shape))
    )
    monkeypatch.setattr(
        css,
        "order_complex",
        wrap("order_complex", order_complex, lambda k: (k.cells, k.faces)),
    )
    monkeypatch.setattr(
        css,
        "chain_complex",
        wrap(
            "chain_complex",
            chain_complex,
            lambda cc: (len(cc.boundaries), [len(m) for m in cc.boundaries]),
        ),
    )

    def start(reference=False):
        log.clear()
        code = before if reference else current
        link = wrap("link_poset", code["link_poset"], shape)
        monkeypatch.setattr(css, "link_poset", link)
        monkeypatch.setattr(css, "_closed_cell_problems", code["_closed_cell_problems"])
        monkeypatch.setattr(css, "_grading_problems", code["_grading_problems"])
        if reference:
            monkeypatch.setattr(
                css, "_sphere_homology_ok", lambda p, n, memo=None: sphere_ok(p, n)
            )
        else:
            monkeypatch.setattr(css, "_sphere_homology_ok", sphere_ok)
        return log

    return start


def logged_steps(x, log):
    """Validate x twice, make a space over its category with computed and
    with given flags, then validate again, all on a fresh copy of its
    category: per step, what it returned or raised and its log."""
    c = fresh(x.cat)
    y = CombinatorialCSS(c, x.closed)
    calls = [
        lambda: validate_total_normality(y),
        lambda: validate_total_normality(y),
        lambda: make_css(c).closed,
        lambda: make_css(c, x.closed).closed,
        lambda: validate_total_normality(y),
    ]
    got = []
    for call in calls:
        log.clear()
        got.append((outcome(call), list(log)))
    return got


def assert_logged_as_reference(x, logged):
    got = logged_steps(x, logged())
    want = logged_steps(x, logged(reference=True))
    assert got == want
    return got


class TestLoggedAsReference:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_every_input(self, name, logged):
        got = assert_logged_as_reference(base(name), logged)
        names = {entry[0] for _, log in got for entry in log}
        if base(name).cat.morphisms:
            assert {"link_poset", "from_relation"} <= names

    # logged() resets its log and patches for each example
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(SMALL), st.sampled_from(HOWS), st.integers(0, 10**6))
    def test_perturbed_inputs(self, logged, name, how, i):
        assert_logged_as_reference(perturbed(name, how, i), logged)

    def test_intervals_are_logged(self, logged):
        """On RP^2 x RP^2 the first validation builds a lower interval for
        most of its from_relation calls, so the log compares them."""
        got = assert_logged_as_reference(base("rp2 x rp2"), logged)
        log = got[0][1]
        links = sum(1 for name, _ in log if name == "link_poset")
        posets = sum(1 for name, _ in log if name == "from_relation")
        assert got[0][0] == ("returned", [])
        assert posets > 2 * links > 0
