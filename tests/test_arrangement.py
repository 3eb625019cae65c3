import random
from collections import Counter, namedtuple
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stratakit.arrangement as arrangement
from stratakit.arrangement import (
    Arrangement,
    SignVector,
    braid_arrangement,
    closure_order_spotcheck,
    complement_poset,
    euler_sum,
    faces_higher,
    faces_level1,
    higher_salvetti,
    permute_central_levels,
    salvetti_cellular,
    symmetric_collapse,
    symmetric_subdivision,
    validate_arrangement,
)
from stratakit.delta import f_vector
from stratakit.homology import chain_complex, homology
from stratakit.poset import Poset, validate_poset


def point_in_line():
    return Arrangement.from_lists(1, [([1], 0)])


def three_generic_lines():
    return Arrangement.from_lists(2, [([1, 0], 0), ([0, 1], 0), ([1, 1], -1)])


def random_arrangement(rng):
    n = rng.randrange(1, 4)
    k = rng.randrange(1, 5)
    rows = []
    seen = set()
    while len(rows) < k:
        a = [F(rng.randrange(-3, 4)) for _ in range(n)]
        if not any(a):
            continue
        b = F(rng.randrange(-2, 3))
        lead = next(v for v in a if v)
        key = tuple(v / lead for v in a + [b])
        if key in seen:
            continue
        seen.add(key)
        rows.append((a, b))
    return Arrangement.from_lists(n, rows)


class TestValidation:
    def test_zero_form_rejected(self):
        with pytest.raises(ValueError, match="zero linear part"):
            Arrangement.from_lists(2, [([0, 0], 1)])

    def test_positive_scaling_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            Arrangement.from_lists(2, [([1, 1], 2), ([2, 2], 4)])

    def test_opposite_forms_allowed(self):
        arr = Arrangement.from_lists(1, [([1], 0), ([-1], 1)])
        assert validate_arrangement(arr) == []


class TestSignVector:
    def test_order(self):
        lo = SignVector((0, (1, 1)), 2)
        hi = SignVector(((1, 2), (1, 1)), 2)
        assert lo.leq(hi) and not hi.leq(lo)
        assert not SignVector(((1, 1),), 1).leq(SignVector(((-1, 1),), 1))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            SignVector(((2, 1),), 1)
        with pytest.raises(ValueError):
            SignVector(((1, 3),), 2)

    @pytest.mark.parametrize(
        "value", [(1, 1.0), (1, True), namedtuple("V", "s l")(1, 1)]
    )
    def test_a_level_is_an_int_in_a_plain_tuple(self, value):
        # the order is tested on bit masks, which read only this form
        with pytest.raises(ValueError, match="malformed sign value"):
            SignVector((value,), 1)


class TestLevelOne:
    def test_point_in_line(self):
        p = faces_level1(point_in_line())
        assert sorted(p.labels.values()) == [(-1,), (0,), (1,)]
        assert sorted(p.grades.values()) == [0, 1, 1]

    def test_three_generic_lines(self):
        p = faces_level1(three_generic_lines())
        counts = Counter(p.grades.values())
        assert counts == Counter({0: 3, 1: 9, 2: 7})
        assert euler_sum(p) == 1

    def test_empty_arrangement(self):
        arr = Arrangement(3, ())
        p = faces_level1(arr)
        assert len(p.elements) == 1
        assert list(p.grades.values()) == [3]

    def test_poset_is_valid_and_dims_strict(self):
        p = faces_level1(three_generic_lines())
        assert validate_poset(p) == []


class TestHigher:
    def test_point_at_level_two(self):
        p = faces_higher(point_in_line(), 2)
        got = sorted(((lab, p.grades[e]) for e, lab in p.labels.items()), key=repr)
        assert ((0,), 0) in got
        assert (((1, 2),), 2) in got and (((-1, 2),), 2) in got
        assert (((1, 1),), 1) in got and (((-1, 1),), 1) in got
        assert len(p.elements) == 5

    def test_level_one_collapses(self):
        arr = three_generic_lines()
        lvl1 = faces_level1(arr)
        hi1 = faces_higher(arr, 1)
        relabeled = {
            tuple((s, 1) if s else 0 for s in lab): g
            for lab, g in (
                (lvl1.labels[e], lvl1.grades[e]) for e in lvl1.elements
            )
        }
        higher = {
            hi1.labels[e]: hi1.grades[e] for e in hi1.elements
        }
        assert relabeled == higher

    def test_braid_a1_level3(self):
        p = faces_higher(braid_arrangement(2), 3)
        assert len(p.elements) == 7

    def test_strictly_smaller_faces_have_smaller_dim(self):
        p = faces_higher(braid_arrangement(2), 2)
        for a, b in p.comparable_pairs():
            assert p.grades[a] < p.grades[b]


class TestComplement:
    def test_point_level2(self):
        cp = complement_poset(point_in_line(), 2)
        assert len(cp.elements) == 4
        hs = higher_salvetti(point_in_line(), 2)
        assert f_vector(hs) == (4, 4)
        assert homology(chain_complex(hs)).betti == (1, 1)

    def test_empty_arrangement(self):
        cp = complement_poset(Arrangement(2, ()), 1)
        assert len(cp.elements) == 1

    def test_braid_a1_level2_dims(self):
        cp = complement_poset(braid_arrangement(2), 2)
        assert sorted(cp.grades.values()) == [3, 3, 4, 4]


class TestHigherSalvetti:
    def test_octahedron(self):
        hs = higher_salvetti(braid_arrangement(2), 3)
        assert f_vector(hs) == (6, 12, 8)
        assert homology(chain_complex(hs)).betti == (1, 0, 1)

    def test_suspension_law(self):
        arr = point_in_line()
        for order in (1, 2, 3, 4):
            hs = higher_salvetti(arr, order)
            chi = sum((-1) ** n * f for n, f in enumerate(f_vector(hs)))
            assert chi == 1 + (-1) ** (order - 1)

    def test_invariance_under_rescaling_and_relabeling(self):
        base = braid_arrangement(2)
        scaled = Arrangement.from_lists(2, [([F(7), F(-7)], F(0))])
        h1 = homology(chain_complex(higher_salvetti(base, 2)))
        h2 = homology(chain_complex(higher_salvetti(scaled, 2)))
        assert h1 == h2
        lines = three_generic_lines()
        relabeled = Arrangement.from_lists(
            2, [([0, 1], 0), ([1, 1], -1), ([1, 0], 0)]
        )
        assert homology(chain_complex(higher_salvetti(lines, 2))) == homology(
            chain_complex(higher_salvetti(relabeled, 2))
        )

    def test_conf3_r2(self):
        h = homology(chain_complex(higher_salvetti(braid_arrangement(3), 2)))
        assert h.betti == (1, 3, 2)
        assert not any(h.torsion)


class TestSalvettiCellular:
    def test_point_level2(self):
        x = salvetti_cellular(point_in_line(), 2)
        assert Counter(x.cat.grades.values()) == Counter({0: 2, 1: 2})

    def test_empty_arrangement(self):
        x = salvetti_cellular(Arrangement(1, ()), 1)
        assert len(x.cells()) == 1

    def test_braid_a1(self):
        x = salvetti_cellular(braid_arrangement(2), 2)
        assert Counter(x.cat.grades.values()) == Counter({0: 2, 1: 2})
        from stratakit.css import sd

        assert homology(chain_complex(sd(x))).betti == (1, 1)


class TestSymmetric:
    def test_point_level2(self):
        p = symmetric_subdivision(point_in_line(), 2)
        assert len(p.elements) == 9
        assert euler_sum(p) == 1
        assert Counter(p.grades.values()) == Counter({0: 1, 1: 4, 2: 4})

    def test_collapse_is_monotone_surjection(self):
        sym = symmetric_subdivision(point_in_line(), 2)
        hi = faces_higher(point_in_line(), 2)
        hi_labels = set(hi.labels.values())
        images = {symmetric_collapse(sym.labels[e]) for e in sym.elements}
        assert images == hi_labels
        index = {lab: e for e, lab in hi.labels.items()}
        for a, b in sym.comparable_pairs():
            fa = index[symmetric_collapse(sym.labels[a])]
            fb = index[symmetric_collapse(sym.labels[b])]
            assert hi.leq(fa, fb)

    def test_level_permutation_preserves_faces(self):
        sym = symmetric_subdivision(braid_arrangement(2), 3)
        labels = set(sym.labels.values())
        perm = {2: 3, 3: 2}
        for lab in labels:
            assert permute_central_levels(lab, perm) in labels

    def test_level_one_cannot_move(self):
        with pytest.raises(ValueError, match="affine"):
            permute_central_levels(((1, 0),), {1: 2, 2: 1})


class TestEulerIdentity:
    def test_fixed_arrangements(self):
        cases = [
            (point_in_line(), 1),
            (point_in_line(), 2),
            (three_generic_lines(), 1),
            (braid_arrangement(2), 2),
            (braid_arrangement(3), 2),
        ]
        for arr, order in cases:
            p = faces_higher(arr, order)
            assert euler_sum(p) == (-1) ** (arr.n * order)

    def test_random_arrangements(self):
        rng = random.Random(20260810)
        for _ in range(6):
            arr = random_arrangement(rng)
            order = rng.randrange(1, 4)
            p = faces_higher(arr, order)
            assert euler_sum(p) == (-1) ** (arr.n * order)


def test_closure_order_spotcheck_clean():
    assert closure_order_spotcheck(point_in_line(), 2, seed=5) == []
    assert closure_order_spotcheck(braid_arrangement(2), 2, seed=5) == []
    assert closure_order_spotcheck(three_generic_lines(), 1, seed=5, pairs=10) == []


@st.composite
def integer_arrangements(draw):
    """Two to four forms in R^2 or R^3 with small integer coefficients; a
    draw with a zero linear part or a repeated hyperplane is rejected."""
    n = draw(st.sampled_from((2, 3)))
    coefficient = st.integers(-3, 3)
    form = st.tuples(st.lists(coefficient, min_size=n, max_size=n), coefficient)
    rows = draw(st.lists(form, min_size=2, max_size=4))
    arr = Arrangement(n, tuple((tuple(map(F, a)), F(b)) for a, b in rows))
    assume(not validate_arrangement(arr))
    return arr


@settings(max_examples=54, deadline=None)
@given(integer_arrangements(), st.integers(0, 2**16))
def test_closure_order_spotcheck_clean_on_random_arrangements(arr, seed):
    # the spotcheck's segments start at LP witnesses, so this covers the
    # witnesses the simplex returns, whatever its starting basis
    for order in (1, 2):
        assert closure_order_spotcheck(arr, order, seed=seed) == []


def test_closure_order_spotcheck_sample_depends_on_the_poset(monkeypatch):
    """The same poset built from all of its pairs (as faces_higher builds
    it) and from its covers alone samples the same pairs for a seed."""
    arr = braid_arrangement(3)
    by_pairs = faces_higher(arr, 2)
    by_covers = Poset.from_relation(
        by_pairs.elements, by_pairs.covers, by_pairs.grades, by_pairs.labels
    )
    # without witnesses every sampled pair is reported, in sample order
    monkeypatch.setattr(arrangement, "_witness", lambda arr, order, label: None)
    samples = []
    for p in (by_pairs, by_covers):
        monkeypatch.setattr(arrangement, "faces_higher", lambda arr, order, p=p: p)
        samples.append(closure_order_spotcheck(arr, 2, seed=0))
    assert len(samples[0]) == 25
    assert samples[0] == samples[1]
