"""The integer-tableau LP and the fraction-free rank against copies of the
Fraction routines they replaced, and the LP's result self-check.

The integer tableau must take the same pivots as a Fraction tableau that
starts as it does (on the inequality slacks, after one pivot of t-), so
every ``Feasibility`` (witness, margin and certificate dicts included)
must equal the reference's, not only the verdict. A second Fraction
tableau, started with an artificial on every row, must reach the same
verdict and margin, which are the LP optimum whatever the start.
"""

import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stratakit.lp as lp
from stratakit.arrangement import braid_arrangement
from stratakit.homology import integer_rank
from stratakit.lp import _check, _rank, _system, rational_rank, strict_feasibility

# ------------------------------------------------ reference: Fraction tableau


def ref_bland_simplex(tab, basis, ncols):
    m = len(tab) - 1
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return True
        pivot_row = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[pivot_row]
                ):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            return False
        ref_pivot(tab, basis, pivot_row, enter)


def ref_pivot(tab, basis, row, col):
    pv = tab[row][col]
    tab[row] = [v / pv for v in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            f = r[col]
            tab[i] = [v - f * p for v, p in zip(r, tab[row])]
    basis[row] = col


class Basis(list):
    """A basis list that reports every assignment, the last step of a
    pivot, as (row, label) to on_pivot."""

    def __init__(self, labels, on_pivot):
        super().__init__(labels)
        self.on_pivot = on_pivot

    def __setitem__(self, row, label):
        super().__setitem__(row, label)
        self.on_pivot(row, label)


def ref_feasibility(equalities, stricts, nvars, pivots=None, start="slack"):
    """The Fraction tableau's result; its pivots, as (row, label), are
    appended to pivots when a list is given.

    start picks the starting basis. "slack", the rule of lp._solve: each
    inequality row is written with a +1 slack and starts on it (a strict
    row is negated), t- enters the strict row with the most negative rhs
    (the first on ties), and only the equality rows start on artificials,
    after negation if their rhs is negative. "artificial", the textbook
    two-phase start: every row starts on an artificial after negation if
    its rhs is negative. The two need not give the same witness or
    certificate, but the verdict and the margin, the LP optimum, agree."""
    zero, one = F(0), F(1)
    rows = []
    for g, h in stricts:
        rows.append((list(g) + [F(-1)], F(h), "ge"))
    for e, f in equalities:
        rows.append((list(e) + [zero], F(f), "eq"))
    rows.append(([zero] * nvars + [one], one, "le"))
    nfree = nvars + 1
    nslack = sum(kind != "eq" for *_, kind in rows)
    ncore = 2 * nfree + nslack
    ncols = ncore + len(rows)
    # each row's starting basic column: +1 in its own row, 0 in the others
    tab, signs, starts = [], [], []
    si = 0
    for ridx, (coeffs, rhs, kind) in enumerate(rows):
        row = [zero] * (ncols + 1)
        for j, a in enumerate(coeffs):
            row[j] = F(a)
            row[nfree + j] = -F(a)
        row[-1] = F(rhs)
        if kind != "eq":
            row[2 * nfree + si] = -one if kind == "ge" else one
        if start == "slack" and kind != "eq":
            sign = 1 if kind == "le" else -1
            starts.append(2 * nfree + si)
        else:
            sign = -1 if row[-1] < 0 else 1
            starts.append(ncore + ridx)
        row = [sign * v for v in row]
        row[ncore + ridx] = one if starts[-1] >= ncore else zero
        si += kind != "eq"
        signs.append(sign)
        tab.append(row)
    basis = list(starts)
    if pivots is not None:
        basis = Basis(basis, lambda row, label: pivots.append((row, label)))
    if start == "slack":
        violated = [i for i in range(len(stricts)) if tab[i][-1] < 0]
        if violated:
            worst = min(violated, key=lambda i: tab[i][-1])
            ref_pivot(tab, basis, worst, nfree + nvars)
    obj = [zero] * (ncols + 1)
    for i, c in enumerate(starts):
        if c >= ncore:
            obj[c] = -one
            obj = [v + r for v, r in zip(obj, tab[i])]
    tab.append(obj)
    ref_bland_simplex(tab, basis, ncore)
    if tab[-1][-1] > 0:
        # an artificial costs -1 in phase 1, a slack 0
        cert = {
            "phase": 1,
            "multipliers": [-(c >= ncore) - tab[-1][c] for c in starts],
            "signs": list(signs),
        }
        return lp.Feasibility(False, None, None, cert)
    for i in range(len(rows)):
        if basis[i] >= ncore:
            enter = next((j for j in range(ncore) if tab[i][j] != 0), None)
            if enter is not None:
                ref_pivot(tab, basis, i, enter)
    obj = [zero] * (ncols + 1)
    obj[nvars] = one
    obj[nfree + nvars] = -one
    tab[-1] = obj
    for i in range(len(rows)):
        if basis[i] < ncore and obj[basis[i]]:
            f = obj[basis[i]]
            tab[-1] = [v - f * r for v, r in zip(tab[-1], tab[i])]
    assert ref_bland_simplex(tab, basis, ncore)
    values = [zero] * ncols
    for i, col in enumerate(basis):
        values[col] = tab[i][-1]
    x = tuple(values[j] - values[nfree + j] for j in range(nvars))
    margin = values[nvars] - values[nfree + nvars]
    if margin > 0:
        return lp.Feasibility(True, x, margin, None)
    y, w = {}, {}
    for ridx, (_, _, kind) in enumerate(rows):
        mult = -tab[-1][starts[ridx]] * signs[ridx]
        (w if kind == "eq" else y)[ridx] = mult
    cert = {"phase": 2, "y": y, "w": w, "bound": margin}
    return lp.Feasibility(False, x, margin, cert)


def ref_rank(rows):
    M = [list(map(F, r)) for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    rank = col = 0
    while rank < m and col < n:
        pivot = next((i for i in range(rank, m) if M[i][col]), None)
        if pivot is None:
            col += 1
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        pv = M[rank][col]
        for i in range(rank + 1, m):
            if M[i][col]:
                f = M[i][col] / pv
                for j in range(col, n):
                    M[i][j] -= f * M[rank][j]
        rank += 1
        col += 1
    return rank


def optimum(result):
    """What every starting basis must agree on, the LP optimum being
    unique: the verdict, the margin t*, and whether the equalities alone
    are inconsistent (a phase-1 certificate)."""
    return result.feasible, result.margin, (result.certificate or {}).get("phase")


def assert_same(equalities, stricts, nvars):
    """strict_feasibility equals the Fraction tableau that starts as it
    does, and has the optimum of the all-artificial start."""
    got = strict_feasibility(equalities, stricts, nvars)
    want = ref_feasibility(equalities, stricts, nvars)
    assert got == want
    assert repr(got) == repr(want)
    assert optimum(got) == optimum(
        ref_feasibility(equalities, stricts, nvars, start="artificial")
    )
    return got


# ------------------------------------------------------------ drawn systems

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def systems(draw, entries=small):
    """Systems with Fraction coefficients drawn from entries that mix in
    zero rows, repeated rows, parallel rows and rows through one common
    point (degenerate vertices)."""
    n = draw(st.integers(1, 3))
    point = draw(st.lists(entries, min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(["free", "zero", "repeat", "parallel", "through"]))
        if how == "zero":
            rows.append(([F(0)] * n, draw(entries)))
        elif how in ("repeat", "parallel") and rows:
            a, b = rows[draw(st.integers(0, len(rows) - 1))]
            if how == "parallel":
                c = draw(entries.filter(bool))
                a, b = [c * v for v in a], draw(entries)
            rows.append((a, b))
        else:
            a = draw(st.lists(entries, min_size=n, max_size=n))
            if how == "through":
                rows.append((a, sum(x * p for x, p in zip(a, point))))
            else:
                rows.append((a, draw(entries)))
    eqs, stricts = [], []
    for a, b in rows:
        kind = draw(st.sampled_from(["eq", "gt", "lt"]))
        if kind == "eq":
            eqs.append((a, b))
        elif kind == "gt":
            stricts.append((a, b))
        else:
            stricts.append(([-v for v in a], -b))
    return eqs, stricts, n


@settings(max_examples=250, deadline=None)
@given(systems())
def test_matches_fraction_tableau(system):
    assert_same(*system)


# numerators up to 2^40 over denominators up to 2^20: entries far past one
# machine word, so a division that is not exact would show
large = st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 2**20))


@settings(max_examples=150, deadline=None)
@given(systems(large))
def test_large_entries_match_fraction_tableau(system):
    assert_same(*system)


# small entries, about half of them integral
integral = st.one_of(st.integers(-3, 3).map(F), small)


def as_ints(system, keep):
    """system with each integral coefficient v for which keep(v) holds
    replaced by the int equal to it."""
    eqs, stricts, n = system

    def plain(v):
        return int(v) if v.denominator == 1 and keep(v) else v

    def convert(rows):
        return [([plain(v) for v in a], plain(b)) for a, b in rows]

    return convert(eqs), convert(stricts), n


@settings(max_examples=150, deadline=None)
@given(systems(integral), st.randoms(use_true_random=False))
def test_int_and_mixed_coefficients_match_their_fraction_form(system, rng):
    want = strict_feasibility(*system)
    for keep in (lambda v: True, lambda v: rng.random() < 0.5):
        got = strict_feasibility(*as_ints(system, keep))
        assert got == want
        assert repr(got) == repr(want)


# ------------------------------------------------- one common denominator


def watched_pivot(pivots, nvars):
    """A stand-in for lp._pivot that runs it and checks it against a
    Fraction pivot of the same tableau: each division is exact, and the
    tableau after it, divided by the new denominator, equals the tableau
    before it, divided by the old one, pivoted in Fraction arithmetic on
    the same row and column. Every pivot is checked, the start pivot of
    _solve among them, so by induction the integer tableau over its
    denominator is the Fraction tableau throughout. Pivots are appended
    to pivots as (row, label), the label read back from the stored column
    and its sign as _solve numbers labels."""
    real = lp._pivot
    nfree = nvars + 1

    def run(tab, r, col, sign, d):
        before = [list(row) for row in tab]
        p = real(tab, r, col, sign, d)
        prow = before[r]
        if sign * prow[col] < 0:
            prow = [-v for v in prow]
        assert p == sign * prow[col]
        urow = [sign * v for v in prow]
        for i, row in enumerate(before):
            if i != r:
                f = row[col]
                assert all((p * a - f * b) % d == 0 for a, b in zip(row, urow))
        assert tab[r] == prow
        ref = [[F(v, d) for v in row] for row in before]
        pv = sign * ref[r][col]
        ref[r] = [v / pv for v in ref[r]]
        for i, row in enumerate(ref):
            if i != r:
                f = sign * row[col]
                ref[i] = [v - f * b for v, b in zip(row, ref[r])]
        assert [[F(v, p) for v in row] for row in tab] == ref
        pivots.append((r, col if col < nfree and sign > 0 else col + nfree))
        return p

    return run


def phase_pivots(calls):
    """A stand-in for lp._simplex that runs it and appends the pivots of
    each call to calls, as a list of (row, label): a program's first call
    is its phase 1, its second its phase 2."""
    real = lp._simplex

    def run(tab, basis, d, nfree, nart, driven=()):
        made = []
        watched = Basis(basis, lambda row, label: made.append((row, label)))
        out = real(tab, watched, d, nfree, nart, driven)
        basis[:] = watched
        calls.append(made)
        return out

    return run


def result_fractions(result):
    cert = result.certificate or {}
    yield from result.witness or ()
    if result.margin is not None:
        yield result.margin
    yield from cert.get("multipliers", ())
    yield from cert.get("y", {}).values()
    yield from cert.get("w", {}).values()


# small and large entries, integral ones about half the time
entries = st.one_of(
    small, large, st.integers(-3, 3).map(F), st.integers(-(2**40), 2**40).map(F)
)


# three equalities through 0 in R^2: the third artificial stays basic at
# zero level and is driven out on a negative pivot
REDUNDANT = (
    [([F(6), F(1)], F(0)), ([F(0), F(-5)], F(0)), ([F(6), F(6)], F(0))],
    [([F(-6), F(-1)], F(0))],
    2,
)


def test_common_denominator_pivots_match_fraction_tableau():
    @settings(max_examples=200, deadline=None)
    @given(
        systems(entries),
        st.sampled_from(["fraction", "int", "mixed"]),
        st.randoms(use_true_random=False),
    )
    @example(REDUNDANT, "int", random.Random(0))
    @example(REDUNDANT, "fraction", random.Random(0))
    def check(system, form, rng):
        keep = {"fraction": lambda v: False, "int": lambda v: True}.get(
            form, lambda v: rng.random() < 0.5
        )
        eqs, stricts, n = as_ints(system, keep)
        got_pivots, want_pivots = [], []
        with mock.patch.object(lp, "_pivot", watched_pivot(got_pivots, n)):
            got = strict_feasibility(eqs, stricts, n)
        want = ref_feasibility(*system, pivots=want_pivots)
        assert got == want
        assert repr(got) == repr(want)
        assert got_pivots == want_pivots
        assert optimum(got) == optimum(ref_feasibility(*system, start="artificial"))
        # a zero in a result is the shared ZERO, not a new Fraction
        assert all(v is lp.ZERO for v in result_fractions(got) if not v)

    check()


@settings(max_examples=150, deadline=None)
@given(systems(entries))
@example(([], [([F(1)], F(1)), ([F(-1)], F(-3))], 1))
def test_without_equalities_phase_1_makes_no_pivot(system):
    # t- enters the most violated strict row before phase 1, which leaves
    # every inequality row feasible, so with no equality row phase 1 has
    # nothing to do: its Bland loop makes no pivot, and the start pivot is
    # the only one before phase 2
    _, stricts, n = system
    calls, pivots = [], []
    with (
        mock.patch.object(lp, "_simplex", phase_pivots(calls)),
        mock.patch.object(lp, "_pivot", watched_pivot(pivots, n)),
    ):
        got = strict_feasibility([], stricts, n)
    phase1, phase2 = calls
    assert phase1 == []
    start = pivots[: len(pivots) - len(phase2)]
    violated = [i for i, (_, h) in enumerate(stricts) if h > 0]
    if violated:
        worst = max(violated, key=lambda i: stricts[i][1])
        assert start == [(worst, 2 * n + 1)]
    else:
        assert start == []
    assert optimum(got) == optimum(ref_feasibility([], stricts, n, start="artificial"))


def braid_sign_systems(k, central):
    """Counts of feasible and infeasible sign systems of braid(k), each
    checked against the Fraction tableau."""
    arr = braid_arrangement(k)
    seen = {True: 0, False: 0}
    for sigma in product((-1, 0, 1), repeat=len(arr.forms)):
        eqs, stricts = [], []
        for s, (a, b) in zip(sigma, arr.forms):
            rhs = F(0) if central else -b
            if s == 0:
                eqs.append((list(a), rhs))
            elif s > 0:
                stricts.append((list(a), rhs))
            else:
                stricts.append(([-v for v in a], -rhs))
        seen[assert_same(eqs, stricts, arr.n).feasible] += 1
    return seen


@pytest.mark.parametrize("central", [False, True])
def test_braid3_sign_systems_match(central):
    # braid(3) has 13 faces: 6 chambers, 6 walls, 1 line
    assert braid_sign_systems(3, central) == {True: 13, False: 14}


def test_braid4_sign_systems_match():
    # braid(4) has 75 faces of its 3^6 sign vectors; its forms are central,
    # so its affine and central systems are the same
    assert braid_sign_systems(4, central=False) == {True: 75, False: 654}


def test_fractional_arrangement_systems_match():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice([2, 3])
        forms = [
            ([F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)],
             F(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(3)
        ]
        for sigma in product((-1, 0, 1), repeat=len(forms)):
            eqs = [(a, -b) for s, (a, b) in zip(sigma, forms) if s == 0]
            stricts = [
                ([s * v for v in a], s * -b) for s, (a, b) in zip(sigma, forms) if s
            ]
            assert_same(eqs, stricts, n)


# ------------------------------------------------------------------ rank


ENTRIES = {
    "int": lambda rng: rng.randint(-5, 5),
    "fraction": lambda rng: F(rng.randint(-5, 5), rng.randint(1, 6)),
}


def low_rank(rng, m, n, r, entry):
    """An m x n matrix that is a product of m x r and r x n factors."""
    left = [[entry(rng) for _ in range(r)] for _ in range(m)]
    right = [[entry(rng) for _ in range(n)] for _ in range(r)]
    return [
        [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
        for i in range(m)
    ]


@pytest.mark.parametrize("kind", sorted(ENTRIES))
def test_rank_matches_fraction_elimination(kind):
    rng = random.Random(11)
    for _ in range(150):
        m, n = rng.randint(0, 7), rng.randint(1, 7)
        mat = low_rank(rng, m, n, rng.randint(0, 4), ENTRIES[kind])
        if rng.random() < 0.3 and mat:
            mat.append(list(mat[rng.randrange(len(mat))]))
        want = ref_rank(mat)
        assert _rank(mat) == want
        assert rational_rank(mat) == want


def test_integer_rank_does_not_call_the_public_rank(monkeypatch):
    # a tracer wrapping lp.rational_rank must not count homology's ranks
    def fail(rows):
        raise AssertionError("homology called lp.rational_rank")

    assert "rational_rank" not in vars(sys.modules["stratakit.homology"])
    monkeypatch.setattr(lp, "rational_rank", fail)
    mat = {(0, 0): 2, (0, 1): 4, (1, 0): 3, (1, 1): 6, (2, 2): 5}
    assert integer_rank(mat) == 2


# ------------------------------------------------------------ self-check


def test_check_rejects_a_tampered_witness():
    stricts = [([F(1)], F(0)), ([F(-1)], F(-1))]
    rows = _system([], stricts, 1)
    r = strict_feasibility([], stricts, 1)
    _check(rows, 1, r)
    with pytest.raises(RuntimeError):
        _check(rows, 1, replace(r, witness=(F(1),)))


def test_check_rejects_a_flipped_phase1_certificate():
    eqs = [([F(1), F(1)], F(0)), ([F(2), F(2)], F(1))]
    rows = _system(eqs, [], 2)
    r = strict_feasibility(eqs, [], 2)
    assert r.certificate["phase"] == 1
    _check(rows, 2, r)
    mult = list(r.certificate["multipliers"])
    i = next(i for i, m in enumerate(mult) if m)
    mult[i] = -mult[i]
    with pytest.raises(RuntimeError):
        _check(rows, 2, replace(r, certificate={**r.certificate, "multipliers": mult}))


def test_check_rejects_a_phase1_certificate_weighting_an_inequality_row():
    # inconsistent equalities with a strict row x > 0: a phase-1 certificate
    # weights the equalities only (the t column forces zero weight on the
    # strict rows and on t <= 1), and _solve returns the shared ZERO there
    eqs = [([F(1), F(1)], F(0)), ([F(2), F(2)], F(1))]
    stricts = [([F(1), F(0)], F(0))]
    rows = _system(eqs, stricts, 2)
    r = strict_feasibility(eqs, stricts, 2)
    assert r.certificate["phase"] == 1
    mult = r.certificate["multipliers"]
    assert mult[0] is lp.ZERO and mult[-1] is lp.ZERO
    _check(rows, 2, r)
    for i in (0, len(rows) - 1):
        for weight in (F(1), F(-1, 3)):
            tampered = list(mult)
            tampered[i] = weight
            cert = {**r.certificate, "multipliers": tampered}
            with pytest.raises(RuntimeError):
                _check(rows, 2, replace(r, certificate=cert))


def test_check_rejects_a_flipped_phase2_certificate():
    # x > 0, y > 0 and x + y = -1/2: the certificate needs the equality
    stricts = [([F(1), F(0)], F(0)), ([F(0), F(1)], F(0))]
    eqs = [([F(1), F(1)], F(-1, 2))]
    rows = _system(eqs, stricts, 2)
    r = strict_feasibility(eqs, stricts, 2)
    assert r.certificate["phase"] == 2
    _check(rows, 2, r)
    for key in ("y", "w"):
        part = dict(r.certificate[key])
        i = next(i for i, m in part.items() if m)
        part[i] = -part[i]
        with pytest.raises(RuntimeError):
            _check(rows, 2, replace(r, certificate={**r.certificate, key: part}))
