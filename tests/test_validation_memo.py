"""One homology per distinct link complex and face category.

``validate_total_normality`` and ``make_css`` share a memo, cached on the
face category (``AcyclicCategory._spheres``), from an order complex's
(vertex count, face table) to its homology. They are compared with copies
of the functions as they were before the memo on fixtures, products,
duals, Salvetti complexes, configuration spaces and perturbed inputs: a
flipped closed flag, a dropped boundary morphism and a disk with a broken
lower interval. On RP^2 x RP^2 the memo computes each distinct homology
once per category, while every link poset, order complex and chain
complex is still built as before. ``_diamond_ok``, which counts chains of
two covers, is compared with a copy of the check by comparable pairs on
link posets and on perturbed and random graded posets.
"""

import functools
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratakit.css as css
from stratakit import category as cat_ops
from stratakit.category import AcyclicCategory
from stratakit.css import (
    CombinatorialCSS,
    _diamond_ok,
    dual,
    link_poset,
    make_css,
    product_css,
    salvetti_complex,
    sd,
    validate_total_normality,
)
from stratakit.fixtures import CSS_FIXTURES, rp2
from stratakit.graphconf import (
    abrams_complex,
    conf_category,
    cycle_graph,
    edge_graph,
    k5_graph,
    loop_graph,
    unordered_conf,
    y_graph,
)
from stratakit.homology import chain_complex, homology
from stratakit.poset import Poset, order_complex


# --- the validation as it was before the memo ----------------------------


def sphere_ok_before(p, n):
    if n == 0:
        return not p.elements
    if not p.elements:
        return False
    kom = order_complex(p)
    if kom.dim() == 0:
        return n == 1 and kom.size(0) == 2
    h = homology(chain_complex(kom))
    want = [0] * max(n, 1)
    want[0] += 1
    if n >= 1:
        want[n - 1] += 1
    betti = list(h.betti) + [0] * (len(want) - len(h.betti))
    if len(betti) != len(want):
        return False
    return betti == want and all(not t for t in h.torsion)


def closed_cell_link_ok_before(p, n, problems, tag):
    if not sphere_ok_before(p, n):
        problems.append(
            f"{tag}: link is not a homology ({n - 1})-sphere as required "
            "for a closed cell"
        )
        return
    if set(p.grades.values()) != set(range(n)) and n > 0:
        problems.append(f"{tag}: link grades do not fill 0..{n - 1}")
    if not _diamond_ok(p):
        problems.append(f"{tag}: link violates the diamond property")
    covers_under = {e: [] for e in p.elements}
    for a, b in p.covers:
        covers_under[b].append((a, b))
    for e in p.elements:
        g = p.grades[e]
        below = sorted(p.down_set(e), key=repr)
        sub = Poset.from_relation(
            below,
            [ab for b in below for ab in covers_under[b]],
            {a: p.grades[a] for a in below},
        )
        if not sphere_ok_before(sub, g):
            problems.append(
                f"{tag}: lower interval under a grade-{g} boundary cell is "
                "not a homology sphere"
            )
            return


def validate_before(x):
    problems = cat_ops.validate_category(x.cat)
    if problems:
        return [f"face category: {p}" for p in problems]
    c = x.cat
    for cell in c.objects:
        if cell not in c.grades:
            problems.append(f"cell {cell!r}: no dimension assigned")
        if cell not in x.closed:
            problems.append(f"cell {cell!r}: no closedness flag")
    if problems:
        return problems
    for m in c.morphisms:
        if c.grades[c.src[m]] >= c.grades[c.dst[m]]:
            problems.append(
                f"morphism {m!r}: lift does not strictly raise dimension"
            )
    if problems:
        return problems
    for cell in c.objects:
        n = c.grades[cell]
        lk = link_poset(x, cell)
        if any(g >= n for g in lk.grades.values()):
            problems.append(
                f"cell {cell!r}: boundary poset contains a cell of dimension "
                f">= {n}"
            )
            continue
        if n == 0 and lk.elements:
            problems.append(f"cell {cell!r}: 0-cell with nonempty boundary")
            continue
        if x.closed[cell]:
            closed_cell_link_ok_before(lk, n, problems, f"cell {cell!r}")
    return problems


def make_css_before(c, closed=None):
    if closed is None:
        probe = CombinatorialCSS(c, {cell: False for cell in c.objects})
        flags = {}
        for cell in c.objects:
            lk = link_poset(probe, cell)
            trial = []
            if sphere_ok_before(lk, c.grades[cell]):
                closed_cell_link_ok_before(lk, c.grades[cell], trial, "probe")
                flags[cell] = not trial
            else:
                flags[cell] = False
    else:
        flags = dict(closed)
    x = CombinatorialCSS(c, flags)
    bad = validate_before(x)
    if bad:
        raise ValueError("not a totally normal encoding: " + "; ".join(bad))
    return x


# --- inputs ---------------------------------------------------------------


def broken_disk():
    """A 2-cell T whose link is a homology circle with a lower interval
    that is not a sphere, so T flagged closed must fail.

    Edges a and b run from p to q; edge e has the one end p. The link of T
    (vertex lifts cp, cq; edge lifts A, B, E) has an order complex with
    five vertices and five edges, connected: H = (Z, Z). The interval
    under E is {cp}, one point instead of S^0.
    """
    src = {
        "a0": "p", "a1": "q", "b0": "p", "b1": "q", "e0": "p",
        "A": "a", "B": "b", "E": "e", "cp": "p", "cq": "q",
    }
    dst = {
        "a0": "a", "a1": "a", "b0": "b", "b1": "b", "e0": "e",
        "A": "T", "B": "T", "E": "T", "cp": "T", "cq": "T",
    }
    compose = {
        ("A", "a0"): "cp", ("A", "a1"): "cq",
        ("B", "b0"): "cp", ("B", "b1"): "cq",
        ("E", "e0"): "cp",
    }
    c = AcyclicCategory(
        ("p", "q", "a", "b", "e", "T"),
        tuple(src),
        src,
        dst,
        compose,
        {"p": 0, "q": 0, "a": 1, "b": 1, "e": 1, "T": 2},
    )
    closed = {"p": True, "q": True, "a": True, "b": True, "e": False, "T": True}
    return CombinatorialCSS(c, closed)


def unchecked_product(x, y):
    """The product category with AND-ed flags, not validated."""
    prod = cat_ops.product_category(x.cat, y.cat)
    closed = {
        (a, b): x.closed[a] and y.closed[b] for a in x.cells() for b in y.cells()
    }
    return CombinatorialCSS(prod, closed)


# products with the two fixtures built from the 3-simplex take seconds each
FACTORS = sorted(set(CSS_FIXTURES) - {"simplex-3", "boundary-simplex-3"})


@functools.lru_cache(maxsize=None)
def fixture(name):
    return CSS_FIXTURES[name]()


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
        f"{f.__name__} {n}": functools.partial(lambda f, n: f(fixture(n)), f, n)
        for f in (dual, salvetti_complex)
        for n in CSS_FIXTURES
    }
)
BASES.update(
    {
        "conf edge 2": lambda: conf_category(edge_graph(), 2),
        "conf loop 2": lambda: conf_category(loop_graph(), 2),
        "conf loop 3": lambda: conf_category(loop_graph(), 3),
        "conf y 2": lambda: conf_category(y_graph(), 2),
        "conf y 3": lambda: conf_category(y_graph(), 3),
        "conf cycle3 2": lambda: conf_category(cycle_graph(3), 2),
        "conf k5 2": lambda: conf_category(k5_graph(), 2),
        "unordered conf y 2": lambda: unordered_conf(y_graph(), 2),
        "abrams cycle3 2": lambda: abrams_complex(cycle_graph(3), 2, 2),
        "broken disk": broken_disk,
        "broken disk x circle": lambda: unchecked_product(
            broken_disk(), fixture("circle-subdivided")
        ),
        "broken disk x simplex-1": lambda: unchecked_product(
            broken_disk(), fixture("simplex-1")
        ),
    }
)


@functools.lru_cache(maxsize=None)
def base(name):
    return BASES[name]()


def flip_flag(x, i):
    cell = x.cells()[i % len(x.cells())]
    return CombinatorialCSS(x.cat, {**x.closed, cell: not x.closed[cell]})


def drop_morphism(x, i):
    """Drop one boundary morphism, preferring one that is not a composite,
    and every composition entry it is a factor of."""
    c = x.cat
    composites = set(c.compose.values())
    pool = [m for m in c.morphisms if m not in composites] or list(c.morphisms)
    if not pool:
        return x
    m = pool[i % len(pool)]
    cat = AcyclicCategory(
        c.objects,
        tuple(k for k in c.morphisms if k != m),
        {k: v for k, v in c.src.items() if k != m},
        {k: v for k, v in c.dst.items() if k != m},
        {pair: gf for pair, gf in c.compose.items() if m not in pair},
        dict(c.grades),
    )
    return CombinatorialCSS(cat, dict(x.closed))


PERTURBATIONS = {
    "none": lambda x, i: x,
    "flip a closed flag": flip_flag,
    "drop a boundary morphism": drop_morphism,
}


def outcome(f, *args):
    """What f returns, or the type and text of what it raises."""
    try:
        return ("returned", f(*args))
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))


def assert_as_before(x):
    assert outcome(validate_total_normality, x) == outcome(validate_before, x)
    for closed in (None, x.closed):
        got = outcome(lambda: make_css(x.cat, closed).closed)
        want = outcome(lambda: make_css_before(x.cat, closed).closed)
        assert got == want


# --- the properties -------------------------------------------------------


class TestDiagnosticsUnchanged:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_every_input(self, name):
        assert_as_before(base(name))

    def test_broken_disk_fails_on_its_lower_interval(self):
        x = broken_disk()
        assert validate_total_normality(x) == [
            "cell 'T': lower interval under a grade-1 boundary cell is not "
            "a homology sphere"
        ]
        assert not make_css(x.cat).closed["T"]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(BASES)),
        st.sampled_from(sorted(PERTURBATIONS)),
        st.integers(0, 10**6),
    )
    def test_perturbed_inputs(self, name, how, i):
        assert_as_before(PERTURBATIONS[how](base(name), i))

    def test_a_failing_verdict_is_reused(self, monkeypatch):
        """Two sphere tests in one validation fail on the same complex of
        dimension >= 1, so the second reads a failing homology from the
        memo; the diagnostics are still those of the copy."""
        x = base("broken disk x circle")
        verdicts = Counter()
        sphere_ok = css._sphere_homology_ok

        def recording(p, n, memo=None):
            ok = sphere_ok(p, n, memo)
            if p.elements and n:
                kom = order_complex(p)
                if kom.dim() > 0:
                    verdicts[(kom.size(0), kom.faces, ok)] += 1
            return ok

        monkeypatch.setattr(css, "_sphere_homology_ok", recording)
        got = validate_total_normality(x)
        monkeypatch.undo()
        assert got and got == validate_before(x)
        assert any(not ok and k > 1 for (_, _, ok), k in verdicts.items())


class TestMemoHitsAndCountedCalls:
    """On RP^2 x RP^2: the homology memo belongs to the face category
    (``AcyclicCategory._spheres``). Each distinct (size(0), faces) key has
    its homology computed once across the flag pass, ``make_css``'s check
    and ``sd``'s check, none in a repeat validation, and once again on a
    fresh copy of the category; the counted calls are those of the code
    before the memo (pinned), except that an empty lower interval builds
    no poset (289 -> 193 ``from_relation`` calls per validation). The
    elements and covers of the posets built, which the benchmark's
    tracer counts, are pinned at their values before that change."""

    # calls of (link_poset, order_complex, chain_complex, Poset.from_relation)
    BEFORE = {
        "validate": (25, 189, 69, 193),
        "make_css": (50, 399, 151, 386),
    }
    # summed (elements, covers) of the from_relation results
    POSET_SIZES = {
        "validate": (1080, 1232),
        "make_css": (2160, 2464),
    }

    @pytest.fixture
    def counted(self, monkeypatch):
        x = product_css(rp2(), rp2())
        counts = Counter()
        key_of = {}  # id(chain complex) -> (chain complex, key)
        homology_keys = []

        def count(name, f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return wrapper

        def chain_complex_keyed(kom):
            counts["chain_complex"] += 1
            cc = chain_complex(kom)
            key_of[id(cc)] = (cc, (kom.size(0), kom.faces))
            return cc

        def homology_keyed(cc, *args):
            homology_keys.append(key_of[id(cc)][1])
            return homology(cc, *args)

        from_relation = Poset.__dict__["from_relation"].__func__

        def from_relation_sized(cls, *args, **kwargs):
            p = from_relation(cls, *args, **kwargs)
            counts["elements"] += len(p.elements)
            counts["covers"] += len(p.covers)
            return p

        monkeypatch.setattr(css, "link_poset", count("link_poset", link_poset))
        monkeypatch.setattr(
            css, "order_complex", count("order_complex", order_complex)
        )
        monkeypatch.setattr(css, "chain_complex", chain_complex_keyed)
        monkeypatch.setattr(css, "homology", homology_keyed)
        monkeypatch.setattr(
            Poset,
            "from_relation",
            classmethod(count("from_relation", from_relation_sized)),
        )
        return x, counts, key_of, homology_keys

    @staticmethod
    def calls(counts):
        return tuple(
            counts[k]
            for k in ("link_poset", "order_complex", "chain_complex", "from_relation")
        )

    @staticmethod
    def sizes(counts):
        return (counts["elements"], counts["covers"])

    @staticmethod
    def fresh(c):
        """The same category with empty caches."""
        return AcyclicCategory(
            c.objects, c.morphisms, c.src, c.dst, c.compose, c.grades
        )

    def test_one_memo_per_category(self, counted):
        x, counts, key_of, homology_keys = counted
        y = make_css(self.fresh(x.cat))
        assert y.closed == x.closed
        assert self.calls(counts) == self.BEFORE["make_css"]
        assert self.sizes(counts) == self.POSET_SIZES["make_css"]
        sd(y)
        assert self.calls(counts) == tuple(
            m + v for m, v in zip(self.BEFORE["make_css"], self.BEFORE["validate"])
        )
        # the flag pass, make_css's check and sd's check: once per key
        distinct = {key for _, key in key_of.values()}
        assert Counter(homology_keys) == {key: 1 for key in distinct}
        assert len(homology_keys) < counts["chain_complex"]
        # a repeat validation reads every homology from the memo
        counts.clear()
        del homology_keys[:]
        assert validate_total_normality(y) == []
        assert self.calls(counts) == self.BEFORE["validate"]
        assert self.sizes(counts) == self.POSET_SIZES["validate"]
        assert homology_keys == []

    def test_a_fresh_copy_computes_each_key_again(self, counted):
        x, counts, key_of, homology_keys = counted
        assert validate_total_normality(x) == []
        assert homology_keys == []  # product_css validated it
        copy = CombinatorialCSS(self.fresh(x.cat), x.closed)
        assert validate_total_normality(copy) == []
        assert self.calls(counts) == tuple(2 * v for v in self.BEFORE["validate"])
        distinct = {key for _, key in key_of.values()}
        assert Counter(homology_keys) == {key: 1 for key in distinct}

    def test_two_argument_call_memoises_nothing(self, counted):
        _, _, _, homology_keys = counted
        p = Poset.from_relation(range(4), [(0, 2), (1, 2), (0, 3), (1, 3)])
        for _ in range(2):
            assert css._sphere_homology_ok(p, 2)
        assert len(homology_keys) == 2


# --- the diamond check ----------------------------------------------------


def diamond_ok_before(p):
    for a, b in p.comparable_pairs():
        if p.grades[b] - p.grades[a] == 2:
            middles = [m for m in p.down_set(b) if p.less(a, m)]
            if len(middles) != 2:
                return False
    return True


LINK_SPACES = sorted(
    name for name in BASES if name.startswith(("fixture", "product", "conf"))
)


def rank_two_pairs(p):
    return [
        (a, b)
        for a, b in p.comparable_pairs()
        if p.grades[b] - p.grades[a] == 2
    ]


def rebuilt(p, drop=(), extra=(), grades=()):
    """p without the elements in drop, with the pairs in extra added to
    its order and the grades of new elements."""
    keep = [e for e in p.elements if e not in drop]
    less = [(a, b) for a, b in p.comparable_pairs() if a not in drop and b not in drop]
    new = dict(grades)
    return Poset.from_relation(
        keep + list(new),
        less + list(extra),
        {**{e: p.grades[e] for e in keep}, **new},
    )


def one_middle(p, i):
    """Drop one of the two middles of a rank-2 interval."""
    pairs = rank_two_pairs(p)
    if not pairs:
        return p
    a, b = pairs[i % len(pairs)]
    m = min(m for m in p.down_set(b) if p.less(a, m))
    return rebuilt(p, drop={m})


def three_middles(p, i):
    """Add a third middle to a rank-2 interval."""
    pairs = rank_two_pairs(p)
    if not pairs:
        return p
    a, b = pairs[i % len(pairs)]
    m = max(p.elements) + 1
    return rebuilt(p, extra=[(a, m), (m, b)], grades={m: p.grades[a] + 1})


def jump_two_grades(p, i):
    """Drop both middles of a rank-2 interval, so its ends form a cover
    across two grades."""
    pairs = rank_two_pairs(p)
    if not pairs:
        return p
    a, b = pairs[i % len(pairs)]
    return rebuilt(p, drop={m for m in p.down_set(b) if p.less(a, m)})


POSET_PERTURBATIONS = {
    "none": lambda p, i: p,
    "one middle": one_middle,
    "three middles": three_middles,
    "a cover across two grades": jump_two_grades,
}


@st.composite
def graded_relations(draw):
    """A poset whose order only rises in grade, from random pairs."""
    grades = draw(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    n = len(grades)
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
    )
    less = [(a, b) for a, b in pairs if grades[a] < grades[b]]
    return Poset.from_relation(range(n), less, dict(enumerate(grades)))


class TestDiamondFromCovers:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(LINK_SPACES),
        st.sampled_from(sorted(POSET_PERTURBATIONS)),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    def test_link_posets(self, name, how, cell, i):
        x = base(name)
        p = link_poset(x, x.cells()[cell % len(x.cells())])
        q = POSET_PERTURBATIONS[how](p, i)
        assert _diamond_ok(q) == diamond_ok_before(q)

    @settings(max_examples=300, deadline=None)
    @given(graded_relations())
    def test_random_graded_posets(self, p):
        assert _diamond_ok(p) == diamond_ok_before(p)

    @pytest.mark.parametrize("how", sorted(set(POSET_PERTURBATIONS) - {"none"}))
    def test_each_perturbation_breaks_a_diamond(self, how):
        x = fixture("simplex-3")
        cell = max(x.cells(), key=x.dim)
        p = link_poset(x, cell)
        assert _diamond_ok(p) and rank_two_pairs(p)
        q = POSET_PERTURBATIONS[how](p, 0)
        assert not _diamond_ok(q) and not diamond_ok_before(q)
