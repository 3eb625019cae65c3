import random
from fractions import Fraction as F

import pytest

from stratakit.lp import rational_rank, strict_feasibility


def evaluate(coeffs, x):
    return sum(a * v for a, v in zip(coeffs, x))


class TestStrictFeasibility:
    def test_open_interval(self):
        r = strict_feasibility([], [([F(1)], F(0)), ([F(-1)], F(-1))], 1)
        assert r.feasible
        assert 0 < r.witness[0] < 1
        assert r.margin == F(1, 2)

    def test_contradictory_stricts(self):
        r = strict_feasibility([], [([F(1)], F(0)), ([F(-1)], F(0))], 1)
        assert not r.feasible
        assert r.margin <= 0
        # the dual multipliers certify the bound: sum m_i row_i == t
        # as a functional, and sum m_i rhs_i == margin
        cert = r.certificate
        rows = [([F(1)], F(0), "ge"), ([F(-1)], F(0), "ge"), ([F(0)], F(1), "le")]
        combo_x = F(0)
        combo_t = F(0)
        combo_rhs = F(0)
        for i, (g, h, kind) in enumerate(rows):
            m = cert["y"].get(i, F(0))
            if kind == "ge":
                combo_x += m * g[0]
                combo_t += -m
                combo_rhs += m * h
            else:
                combo_t += m
                combo_rhs += m * F(1)
        assert combo_x == 0 and combo_t == 1
        assert combo_rhs == r.margin

    def test_inconsistent_equalities(self):
        r = strict_feasibility([([F(1)], F(0)), ([F(1)], F(1))], [], 1)
        assert not r.feasible
        cert = r.certificate
        assert cert["phase"] == 1
        # Farkas: the multipliers combine the equality rows to 0 = nonzero
        mult = cert["multipliers"]
        assert mult[0] * F(1) + mult[1] * F(1) == 0
        assert mult[0] * F(0) + mult[1] * F(1) != 0

    def test_boundary_not_strictly_feasible(self):
        # x > 0 and x < 0 have the common closure point 0 only
        r = strict_feasibility(
            [([F(1), F(0)], F(0))], [([F(0), F(1)], F(0)), ([F(0), F(-1)], F(0))], 2
        )
        assert not r.feasible

    def test_no_constraints(self):
        r = strict_feasibility([], [], 2)
        assert r.feasible and r.margin == 1

    def test_witnesses_satisfy_systems(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(1, 4)
            eqs = []
            stricts = []
            for _ in range(rng.randrange(0, 4)):
                coeffs = [F(rng.randrange(-3, 4)) for _ in range(n)]
                rhs = F(rng.randrange(-3, 4))
                if any(coeffs):
                    (eqs if rng.random() < 0.4 else stricts).append((coeffs, rhs))
            r = strict_feasibility(eqs, stricts, n)
            if r.feasible:
                for coeffs, rhs in eqs:
                    assert evaluate(coeffs, r.witness) == rhs
                for coeffs, rhs in stricts:
                    assert evaluate(coeffs, r.witness) > rhs


class TestShapes:
    """A coefficient list of the wrong length is an input error, never a
    failed self-check of the LP or an IndexError."""

    def test_strict_row_longer_than_nvars(self):
        message = "strict row 0 has 2 coefficients, expected 1"
        with pytest.raises(ValueError, match=message):
            strict_feasibility([], [([1, 2], 0)], 1)

    def test_equality_row_longer_than_nvars(self):
        message = "equality row 0 has 1 coefficients, expected 0"
        with pytest.raises(ValueError, match=message):
            strict_feasibility([([1], 0)], [], 0)

    def test_short_row_after_good_rows(self):
        message = "strict row 1 has 1 coefficients, expected 2"
        with pytest.raises(ValueError, match=message):
            strict_feasibility([([F(1), F(0)], F(0))], [([1, 1], 0), ([F(1)], 0)], 2)

    def test_ragged_rank_rows(self):
        with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
            rational_rank([[1, 2], [3]])


class TestRank:
    def test_known_ranks(self):
        assert rational_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rational_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert rational_rank([]) == 0
        assert rational_rank([[F(0), F(0)]]) == 0

    def test_rank_of_fraction_rows(self):
        rows = [
            [F(1, 2), F(1, 3), F(0)],
            [F(1), F(2, 3), F(0)],
            [F(0), F(0), F(5)],
        ]
        assert rational_rank(rows) == 2
