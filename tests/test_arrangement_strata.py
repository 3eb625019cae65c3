"""The stratifications read from one enumeration of symmetric strata.

`faces_level1`, `faces_higher`, `symmetric_subdivision`, `complement_poset`
and `_signs_at` are checked against in-test copies of their earlier
versions, which built each stratification in its own loop, wrote the
collapse rule out separately, compared labels value by value and built
every LP system row by row: equal elements, covers, grades and labels,
and the same sequence of LP systems. The bit-mask order of labels is
checked against the value-by-value comparisons, both as the face posets
read it and as ``SignVector.leq`` reads it. The LP row table holds ints
exactly where a coefficient is integral, and the level-1 candidates
equal those of a copy of the Fraction-row code.
"""

import sys
from fractions import Fraction as F
from itertools import product as iproduct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratakit.arrangement as arrangement
from stratakit.arrangement import (
    Arrangement,
    SignVector,
    braid_arrangement,
    complement_poset,
    faces_higher,
    faces_level1,
    symmetric_subdivision,
    validate_arrangement,
)
from stratakit.lp import rational_rank, strict_feasibility
from stratakit.poset import Poset

# ---- reference copies of the earlier code --------------------------------


def ref_sign_system(arr, signs, central):
    eqs = []
    stricts = []
    for s, (a, b) in zip(signs, arr.forms):
        if s is None:
            continue
        rhs = F(0) if central else -b
        if s == 0:
            eqs.append((list(a), rhs))
        elif s > 0:
            stricts.append((list(a), rhs))
        else:
            stricts.append(([-v for v in a], -rhs))
    return eqs, stricts


def ref_level1_candidates(arr, central):
    out = []
    for sigma in iproduct((-1, 0, 1), repeat=len(arr.forms)):
        feas = strict_feasibility(*ref_sign_system(arr, sigma, central), arr.n)
        if not feas.feasible:
            continue
        zero_rows = [list(a) for s, (a, _) in zip(sigma, arr.forms) if s == 0]
        dim = arr.n - rational_rank(zero_rows) if zero_rows else arr.n
        out.append((sigma, dim, feas))
    return out


def ref_poset_from_faces(faces, leq):
    labels = sorted(faces, key=repr)
    index = {lab: i for i, lab in enumerate(labels)}
    less = [
        (index[a], index[b])
        for a in labels
        for b in labels
        if a != b and leq(a, b)
    ]
    return Poset.from_relation(
        range(len(labels)),
        less,
        {index[lab]: faces[lab] for lab in labels},
        {index[lab]: lab for lab in labels},
    )


def ref_value_leq(v, w):
    if v == 0:
        return True
    if w == 0:
        return False
    return v[1] < w[1] or v == w


def ref_level1_leq(a, b):
    return all(x == 0 or x == y for x, y in zip(a, b))


def ref_higher_leq(a, b):
    return all(ref_value_leq(v, w) for v, w in zip(a, b))


def ref_faces_level1(arr):
    bad = validate_arrangement(arr)
    if bad:
        raise ValueError("; ".join(bad))
    faces = {
        sigma: dim for sigma, dim, _ in ref_level1_candidates(arr, central=False)
    }
    return ref_poset_from_faces(faces, ref_level1_leq)


def ref_combine(affine, centrals):
    out = []
    for i in range(len(affine)):
        value = 0
        for level in range(len(centrals), 0, -1):
            s = centrals[level - 1][i]
            if s:
                value = (s, level + 1)
                break
        if value == 0 and affine[i]:
            value = (affine[i], 1)
        out.append(value)
    return tuple(out)


def ref_level_parts(arr, order):
    if order < 1:
        raise ValueError("order must be >= 1")
    bad = validate_arrangement(arr)
    if bad:
        raise ValueError("; ".join(bad))
    affine = [(s, d) for s, d, _ in ref_level1_candidates(arr, central=False)]
    central = (
        [(s, d) for s, d, _ in ref_level1_candidates(arr, central=True)]
        if order > 1
        else []
    )
    return iproduct(affine, *[central] * (order - 1))


def ref_faces_higher(arr, order):
    faces = {}
    for parts in ref_level_parts(arr, order):
        label = ref_combine(parts[0][0], [p[0] for p in parts[1:]])
        dim = sum(p[1] for p in parts)
        if faces.get(label, -1) < dim:
            faces[label] = dim
    return ref_poset_from_faces(faces, ref_higher_leq)


def ref_complement_poset(arr, order):
    p = ref_faces_higher(arr, order)
    keep = [e for e in p.elements if all(v != 0 for v in p.labels[e])]
    kept = set(keep)
    return Poset.from_relation(
        keep,
        [(a, b) for a, b in p.covers if a in kept and b in kept],
        {e: p.grades[e] for e in keep},
        {e: p.labels[e] for e in keep},
    )


def ref_symmetric_subdivision(arr, order):
    faces = {}
    for parts in ref_level_parts(arr, order):
        label = tuple(
            tuple(p[0][i] for p in parts) for i in range(len(arr.forms))
        )
        faces[label] = sum(p[1] for p in parts)

    def leq(a, b):
        return all(
            x == 0 or x == y for fa, fb in zip(a, b) for x, y in zip(fa, fb)
        )

    return ref_poset_from_faces(faces, leq)


def ref_signs_at(arr, points):
    out = []
    for a, b in arr.forms:
        value = 0
        for level in range(len(points), 0, -1):
            x = points[level - 1]
            v = sum(ai * xi for ai, xi in zip(a, x))
            if level == 1:
                v += b
            if v:
                value = (1 if v > 0 else -1, level)
                break
        out.append(value)
    return tuple(out)


# ---- comparison ----------------------------------------------------------


def shape(p):
    return p.elements, p.covers, p.grades, p.labels


def lp_systems(build, *args):
    """The poset `build` returns and the LP systems it solves, in order.
    Both bindings are wrapped, so the reference and the program are
    recorded the same way."""
    with mock.patch.object(
        arrangement, "strict_feasibility", wraps=strict_feasibility
    ) as program, mock.patch.object(
        sys.modules[__name__], "strict_feasibility", wraps=strict_feasibility
    ) as reference:
        p = build(*args)
    return shape(p), [c.args for c in program.call_args_list + reference.call_args_list]


def assert_same(new, ref, *args):
    assert lp_systems(new, *args) == lp_systems(ref, *args)


PAIRS = (
    (faces_higher, ref_faces_higher),
    (complement_poset, ref_complement_poset),
    (symmetric_subdivision, ref_symmetric_subdivision),
)

# the reference symmetric_subdivision compares every pair of its strata, so
# an order is drawn only while the strata number at most this many
MAX_STRATA = 600


@st.composite
def arrangements(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 4))
    coefficient = st.integers(-2, 2)
    forms = ()
    for _ in range(k):
        a = draw(st.lists(coefficient, min_size=n, max_size=n))
        trial = forms + ((tuple(map(F, a)), F(draw(coefficient))),)
        # a form with zero linear part or repeating a hyperplane is dropped
        if not validate_arrangement(Arrangement(n, trial)):
            forms = trial
    return Arrangement(n, forms)


def assert_matches_references(arr, order):
    assert_same(faces_level1, ref_faces_level1, arr)
    affine = len(arrangement._level1_candidates(arr, central=False))
    central = len(arrangement._level1_candidates(arr, central=True))
    while order > 1 and affine * central ** (order - 1) > MAX_STRATA:
        order -= 1
    for new, ref in PAIRS:
        assert_same(new, ref, arr, order)


@settings(max_examples=60, deadline=None)
@given(arrangements(), st.integers(1, 3))
def test_stratifications_match_the_separate_loops(arr, order):
    assert_matches_references(arr, order)


# how each form of a drawn arrangement is placed: anywhere, through the
# origin, through one common point, or parallel to the first form; a
# "mixed" arrangement draws the rule form by form
PLACEMENTS = ("generic", "central", "concurrent", "parallel")


@st.composite
def typed_arrangements(draw):
    """Two to four forms in R^1..R^3 with fractional coefficients, of one
    drawn combinatorial type: generic, central, concurrent, parallel or
    mixed (the benchmark's draws are all three concurrent forms and one
    parallel to one of them). A form that repeats a hyperplane is dropped,
    so in R^1 fewer may remain."""
    n = draw(st.sampled_from((2, 3, 1)))
    kind = draw(st.sampled_from(PLACEMENTS + ("mixed",)))
    q = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
    point = draw(st.lists(q, min_size=n, max_size=n))
    forms = ()
    for _ in range(draw(st.sampled_from((4, 3, 2)))):
        rule = draw(st.sampled_from(PLACEMENTS)) if kind == "mixed" else kind
        if rule == "parallel" and forms:
            a = forms[0][0]
        else:
            a = tuple(draw(st.lists(q, min_size=n, max_size=n)))
        if rule == "central":
            b = F(0)
        elif rule == "concurrent":
            b = -sum(x * p for x, p in zip(a, point))
        else:
            b = draw(q)
        trial = forms + ((a, b),)
        # a form with zero linear part or repeating a hyperplane is dropped
        if not validate_arrangement(Arrangement(n, trial)):
            forms = trial
    return Arrangement(n, forms)


@settings(max_examples=80, deadline=None)
@given(typed_arrangements(), st.integers(1, 3))
def test_typed_fractional_arrangements_match_the_references(arr, order):
    assert_matches_references(arr, order)


@st.composite
def label_pairs(draw):
    """(order, plain, a, b): two labels of k <= 8 forms at order 1..4,
    as plain signs (order 1 only, as faces_level1 labels them) or as
    values 0 / (sign, level). b keeps each value of a with probability
    about one half, so that comparable pairs are common."""
    order = draw(st.integers(1, 4))
    plain = order == 1 and draw(st.booleans())
    if plain:
        value = st.sampled_from((-1, 0, 1))
    else:
        value = st.one_of(
            st.just(0), st.tuples(st.sampled_from((-1, 1)), st.integers(1, order))
        )
    k = draw(st.integers(0, 8))
    a = tuple(draw(st.lists(value, min_size=k, max_size=k)))
    b = tuple(draw(st.one_of(st.just(v), value)) for v in a)
    return order, plain, a, b


@settings(max_examples=500, deadline=None)
@given(label_pairs())
def test_mask_order_is_the_value_order(case):
    order, plain, a, b = case
    (lo_a, lo_b), (hi_a, hi_b) = arrangement._order_masks([a, b], order)
    leq = ref_level1_leq if plain else ref_higher_leq
    assert (not lo_a & hi_b) == leq(a, b)
    assert (not lo_b & hi_a) == leq(b, a)
    assert not lo_a & hi_a


def as_values(label):
    """A plain-sign label as SignVector values: s read as (s, 1)."""
    return tuple((v, 1) if v else 0 for v in label)


@settings(max_examples=500, deadline=None)
@given(label_pairs())
def test_sign_vector_leq_is_the_value_order(case):
    """``SignVector.leq`` against the value-by-value comparison; vectors of
    a different order or length raise."""
    order, plain, a, b = case
    if plain:
        a, b = as_values(a), as_values(b)
    u, v = SignVector(a, order), SignVector(b, order)
    assert u.leq(v) == ref_higher_leq(a, b)
    assert v.leq(u) == ref_higher_leq(b, a)
    others = [SignVector(b, order + 1), SignVector(b + (0,), order)]
    if b:
        others.append(SignVector(b[:-1], order))
    for other in others:
        for x, y in ((u, other), (other, u)):
            with pytest.raises(ValueError, match="different data"):
                x.leq(y)


def test_braid3_matches_the_separate_loops():
    arr = braid_arrangement(3)
    assert_same(faces_level1, ref_faces_level1, arr)
    for order in (1, 2, 3):
        assert_same(faces_higher, ref_faces_higher, arr, order)
        assert_same(complement_poset, ref_complement_poset, arr, order)
    for order in (1, 2):
        assert_same(symmetric_subdivision, ref_symmetric_subdivision, arr, order)


@st.composite
def arrangements_with_points(draw):
    arr = draw(arrangements())
    levels = draw(st.integers(1, 3))
    coordinate = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    points = [
        tuple(draw(st.lists(coordinate, min_size=arr.n, max_size=arr.n)))
        for _ in range(levels)
    ]
    return arr, points


@settings(max_examples=200, deadline=None)
@given(arrangements_with_points())
def test_signs_at_matches_the_separate_rule(case):
    arr, points = case
    assert arrangement._signs_at(arr, points) == ref_signs_at(arr, points)


# ---- integer rows of the LP row table ------------------------------------


def fraction_sign_rows(arr, central):
    """The earlier _sign_rows: every coefficient and rhs a Fraction."""
    table = []
    for a, b in arr.forms:
        rhs = F(0) if central else -b
        row = (list(a), rhs)
        table.append((row, row, ([-v for v in a], -rhs)))
    return table


def fraction_level1_candidates(arr, central):
    """The earlier _level1_candidates, on Fraction rows."""
    rows = fraction_sign_rows(arr, central)
    out = []
    for sigma in iproduct((-1, 0, 1), repeat=len(arr.forms)):
        feas = strict_feasibility(*arrangement._sign_system(rows, sigma), arr.n)
        if not feas.feasible:
            continue
        zero_rows = [row[0][0] for s, row in zip(sigma, rows) if s == 0]
        dim = arr.n - rational_rank(zero_rows) if zero_rows else arr.n
        out.append((sigma, dim))
    return out


FRACTIONAL = Arrangement.from_lists(
    2,
    [
        ([F(1, 2), 1], F(1, 3)),
        ([1, -1], 0),
        ([F(2, 3), F(-1, 5)], -1),
        ([3, F(4, 7)], F(5, 2)),
    ],
)


def test_sign_rows_hold_ints_exactly_where_integral():
    for arr in (braid_arrangement(4), FRACTIONAL):
        for central in (False, True):
            got = arrangement._sign_rows(arr, central)
            want = fraction_sign_rows(arr, central)
            assert len(got) == len(want)
            for by_sign, ref_by_sign in zip(got, want):
                for (coeffs, rhs), (ref_coeffs, ref_rhs) in zip(by_sign, ref_by_sign):
                    for v, ref in zip([*coeffs, rhs], [*ref_coeffs, ref_rhs]):
                        assert v == ref
                        assert type(v) is (int if ref.denominator == 1 else F)
                    assert len(coeffs) == len(ref_coeffs) == arr.n


def test_level1_candidates_match_the_fraction_rows():
    for arr in (braid_arrangement(4), FRACTIONAL):
        for central in (False, True):
            got = arrangement._level1_candidates(arr, central)
            assert got == fraction_level1_candidates(arr, central)
