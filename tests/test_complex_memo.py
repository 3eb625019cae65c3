"""One order complex per distinct sphere-test poset and face category.

``css._sphere_homology_ok`` keeps the order complex of each link or
lower-interval poset in the face category's memo
(``AcyclicCategory._spheres``), keyed by the poset's (elements, covers).
A repeated test attaches that complex to its new poset as ``_complex``,
which ``order_complex`` returns after validating the poset, and the
complex carries its certified chain complex as ``_chain``, which
``chain_complex`` returns.

The validation is compared with a reference that runs each sphere test
with a fresh memo, on fixtures, products, duals, a configuration space and
perturbed inputs: diagnostics, computed flags, the number of calls to
``link_poset``, ``Poset.from_relation``, ``order_complex`` and
``chain_complex`` per validation, and the sizes they return, must all be
equal. The guards stay: a poset with a known key but invalid grades still
raises, a complex with d . d != 0 still raises, and nothing is attached
to a poset or a complex that validation did not build.
"""

import functools
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stratakit.css as css
import stratakit.poset as poset_mod
from stratakit.category import AcyclicCategory
from stratakit.css import (
    CombinatorialCSS,
    dual,
    link_poset,
    make_css,
    product_css,
    validate_total_normality,
)
from stratakit.delta import DeltaComplex
from stratakit.fixtures import CSS_FIXTURES, circle_minimal, rp2, torus
from stratakit.graphconf import conf_category, y_graph
from stratakit.homology import chain_complex
from stratakit.poset import Poset, order_complex
from test_validation_memo import broken_disk, drop_morphism, outcome, unchecked_product


# --- counted calls ----------------------------------------------------------


def fresh(c):
    """The same category with empty caches, so with an empty memo."""
    return AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, c.compose, c.grades)


@pytest.fixture
def counted(monkeypatch):
    """Count the calls of the four traced functions and the sizes of what
    they return, and the order complexes grown by the nerve kernel.
    ``counted(reference=True)`` runs every sphere test with a fresh memo."""
    counts = Counter()
    sphere_ok = css._sphere_homology_ok

    def wrap(name, f, *sizes):
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            counts[name] += 1
            for label, size in sizes:
                counts[f"{name} {label}"] += size(out)
            return out

        return wrapper

    monkeypatch.setattr(
        css,
        "link_poset",
        wrap("link_poset", link_poset, ("elements", lambda p: len(p.elements))),
    )
    from_relation = Poset.__dict__["from_relation"].__func__
    monkeypatch.setattr(
        Poset,
        "from_relation",
        classmethod(
            wrap(
                "from_relation",
                from_relation,
                ("elements", lambda p: len(p.elements)),
                ("covers", lambda p: len(p.covers)),
            )
        ),
    )
    monkeypatch.setattr(
        css,
        "order_complex",
        wrap(
            "order_complex",
            order_complex,
            ("cells", lambda k: sum(map(len, k.cells))),
        ),
    )
    monkeypatch.setattr(
        css,
        "chain_complex",
        wrap(
            "chain_complex",
            chain_complex,
            ("matrices", lambda cc: len(cc.boundaries)),
            ("nnz", lambda cc: sum(len(m) for m in cc.boundaries)),
        ),
    )
    monkeypatch.setattr(
        poset_mod, "_order_nerve", wrap("nerves", poset_mod._order_nerve)
    )

    def start(reference=False):
        counts.clear()
        if reference:
            monkeypatch.setattr(
                css, "_sphere_homology_ok", lambda p, n, memo=None: sphere_ok(p, n)
            )
        else:
            monkeypatch.setattr(css, "_sphere_homology_ok", sphere_ok)
        return counts

    return start


TRACED = (
    "link_poset",
    "link_poset elements",
    "from_relation",
    "from_relation elements",
    "from_relation covers",
    "order_complex",
    "order_complex cells",
    "chain_complex",
    "chain_complex matrices",
    "chain_complex nnz",
)


def steps(x, counts):
    """Validate x twice, make a space over its category with computed and
    with given flags, then validate that twice more, all on a fresh copy
    of its category: per step, what it returned or raised and the traced
    counts. The nerve counts are returned apart."""
    c = fresh(x.cat)
    y = CombinatorialCSS(c, x.closed)
    calls = [
        lambda: validate_total_normality(y),
        lambda: validate_total_normality(y),
        lambda: make_css(c).closed,
        lambda: make_css(c, x.closed).closed,
        lambda: validate_total_normality(y),
    ]
    got, nerves = [], []
    for call in calls:
        counts.clear()
        got.append((outcome(call), tuple(counts[k] for k in TRACED)))
        nerves.append(counts["nerves"])
    return got, nerves


def assert_as_reference(x, counted):
    got, nerves = steps(x, counted())
    want, ref_nerves = steps(x, counted(reference=True))
    assert got == want
    assert all(n <= r for n, r in zip(nerves, ref_nerves))
    return got, nerves, ref_nerves


# --- inputs -----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fixture(name):
    return CSS_FIXTURES[name]()


def all_closed(x):
    """Every flag set: a non-closed cell whose link is no sphere is now
    flagged closed."""
    return CombinatorialCSS(x.cat, {cell: True for cell in x.cells()})


def bad_grades(x, i):
    """Raise the grade of one cell to the top grade, so some lift into or
    out of it no longer raises dimension."""
    c = x.cat
    cell = c.objects[i % len(c.objects)]
    grades = {**c.grades, cell: max(c.grades.values())}
    cat = AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, c.compose, grades)
    return CombinatorialCSS(cat, dict(x.closed))


def no_grade(x, i):
    c = x.cat
    cell = c.objects[i % len(c.objects)]
    grades = {k: v for k, v in c.grades.items() if k != cell}
    cat = AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, c.compose, grades)
    return CombinatorialCSS(cat, dict(x.closed))


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
        "torus x minimal circle": lambda: product_css(torus(), circle_minimal()),
        "conf y 2": lambda: conf_category(y_graph(), 2),
        "broken disk": broken_disk,
        "broken disk x circle": lambda: unchecked_product(
            broken_disk(), fixture("circle-subdivided")
        ),
        "all closed simplex-2": lambda: all_closed(fixture("simplex-2")),
        "all closed punctured-torus": lambda: all_closed(fixture("punctured-torus")),
        "all closed dual simplex-2": lambda: all_closed(dual(fixture("simplex-2"))),
    }
)


@functools.lru_cache(maxsize=None)
def base(name):
    return BASES[name]()


PERTURBATIONS = {
    "raise a grade": bad_grades,
    "drop a grade": no_grade,
    "drop a boundary morphism": drop_morphism,
}


# --- the properties ---------------------------------------------------------


class TestAsReference:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_every_input(self, name, counted):
        assert_as_reference(base(name), counted)

    # counted() resets its counts and patches for each example
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(sorted(n for n in BASES if not n.startswith("rp2 x"))),
        st.sampled_from(sorted(PERTURBATIONS)),
        st.integers(0, 10**6),
    )
    def test_perturbed_inputs(self, counted, name, how, i):
        assert_as_reference(PERTURBATIONS[how](base(name), i), counted)

    def test_the_perturbations_fail(self, counted):
        """The perturbed inputs reach the diagnostics they stand for."""
        got, _, _ = assert_as_reference(base("all closed dual simplex-2"), counted)
        assert "link is not a homology (1)-sphere" in " ".join(got[0][0][1])
        got, _, _ = assert_as_reference(base("broken disk"), counted)
        assert "lower interval under a grade-1" in " ".join(got[0][0][1])
        got, _, _ = assert_as_reference(bad_grades(fixture("torus"), 0), counted)
        assert "lift does not strictly raise dimension" in " ".join(got[0][0][1])

    def test_repeats_build_no_nerve(self, counted):
        """On RP^2 x RP^2 the first validation over a fresh category builds
        one nerve per distinct poset with a cover (49), and every later
        step none, while the reference builds one per ``chain_complex``
        call: 69 per validation, 151 for the flag pass and its check."""
        got, nerves, ref_nerves = assert_as_reference(base("rp2 x rp2"), counted)
        assert nerves == [49, 0, 0, 0, 0]
        assert ref_nerves == [69, 69, 151, 69, 69]
        assert [g[1][TRACED.index("chain_complex")] for g in got] == ref_nerves
        assert got[0][1][TRACED.index("order_complex")] == 189


class TestHooks:
    def test_a_hit_returns_the_memos_values(self):
        x = base("rp2 x rp2")
        y = CombinatorialCSS(fresh(x.cat), x.closed)
        c = y.cat
        assert validate_total_normality(y) == []
        memo = c._spheres
        keyed = {k: v for k, v in memo.items() if isinstance(k[0], tuple)}
        assert keyed
        cell = max(c.objects, key=c.grades.__getitem__)
        lk = link_poset(y, cell)
        kom, h = keyed[(lk.elements, lk.covers)]
        assert css._sphere_homology_ok(lk, c.grades[cell], memo)
        assert lk.__dict__["_complex"] is kom
        assert order_complex(lk) is kom
        assert chain_complex(kom) is kom.__dict__["_chain"]
        assert memo[(kom.size(0), kom.faces)] is h
        # the shared values equal those built from scratch
        bare = Poset(lk.elements, lk.covers, lk.grades, lk.labels)
        assert order_complex(bare) == kom
        assert chain_complex(order_complex(bare)).shape == chain_complex(kom).shape

    def test_a_known_key_with_bad_grades_still_raises(self):
        x = base("rp2 x rp2")
        y = CombinatorialCSS(fresh(x.cat), x.closed)
        c = y.cat
        assert validate_total_normality(y) == []
        memo = c._spheres
        cell = max(c.objects, key=c.grades.__getitem__)
        lk = link_poset(y, cell)
        assert (lk.elements, lk.covers) in memo
        lo, hi = lk.covers[0]
        grades = {**lk.grades, lo: lk.grades[hi]}

        def regraded():
            return Poset.from_relation(lk.elements, lk.covers, grades, lk.labels)

        with pytest.raises(ValueError) as fresh_memo:
            css._sphere_homology_ok(regraded(), c.grades[cell])
        with pytest.raises(ValueError) as known:
            css._sphere_homology_ok(regraded(), c.grades[cell], memo)
        assert str(known.value) == str(fresh_memo.value)
        assert "grade does not increase along cover" in str(known.value)
        p = regraded()
        p.__dict__["_complex"] = memo[(lk.elements, lk.covers)][0]
        with pytest.raises(ValueError, match="grade does not increase"):
            order_complex(p)

    def test_a_bad_complex_still_raises(self):
        # d(T) = 2a - b and d(2a - b) = 2v1 - v0 - v2 != 0
        k = DeltaComplex(
            ((0, 1, 2), ("a", "b", "c"), ("T",)),
            (((1, 0), (2, 0), (2, 1)), ((0, 1, 0),)),
        )
        validate_total_normality(base("rp2 x rp2"))
        for _ in range(2):
            with pytest.raises(ValueError, match="boundary squared is nonzero"):
                chain_complex(k)
        assert "_chain" not in k.__dict__

    def test_values_built_outside_validation_gain_no_hook(self):
        x = base("rp2 x rp2")
        validate_total_normality(x)
        cell = max(x.cells(), key=x.cat.grades.__getitem__)
        for p in (
            link_poset(x, cell),
            Poset.from_relation(range(4), [(0, 2), (1, 2), (0, 3), (1, 3)]),
            Poset((0, 1, 2), ((0, 1), (1, 2))),
        ):
            kom = order_complex(p)
            before = dict(kom.__dict__)
            chain_complex(kom)
            chain_complex(kom)
            assert "_complex" not in p.__dict__
            assert kom.__dict__ == before
            assert "_chain" not in before
            # a sphere test without a memo attaches nothing to its poset
            css._sphere_homology_ok(p, 2)
            assert "_complex" not in p.__dict__

    def test_the_memo_belongs_to_the_category(self):
        x = base("torus x minimal circle")
        c = fresh(x.cat)
        validate_total_normality(CombinatorialCSS(c, x.closed))
        entries = len(c._spheres)
        assert entries
        validate_total_normality(CombinatorialCSS(c, x.closed))
        assert len(c._spheres) == entries
        assert fresh(c)._spheres == {}
