import random
from itertools import combinations

import pytest

from stratakit.delta import euler_characteristic, f_vector, validate_delta
from stratakit.homology import chain_complex, homology
from stratakit.poset import (
    Poset,
    are_isomorphic,
    opposite,
    order_complex,
    product,
    validate_poset,
)


def chain(n):
    return Poset(
        tuple(range(n + 1)),
        tuple((i, i + 1) for i in range(n)),
        {i: i for i in range(n + 1)},
    )


def antichain(n):
    return Poset(tuple(range(n)), (), {i: 0 for i in range(n)})


def random_poset(rng, size=7):
    """A random graded poset built from a random DAG on a random grading."""
    grades = {i: rng.randrange(0, 4) for i in range(size)}
    less = [
        (a, b)
        for a in range(size)
        for b in range(size)
        if grades[a] < grades[b] and rng.random() < 0.4
    ]
    return Poset.from_relation(range(size), less, grades)


class TestValidate:
    def test_total_order_valid(self):
        assert validate_poset(chain(2)) == []

    def test_two_cycle_reports_antisymmetry(self):
        p = Poset((0, 1), ((0, 1), (1, 0)))
        assert any("antisymmetry" in msg for msg in validate_poset(p))

    def test_boolean_lattice_minus_bottom(self):
        subsets = [
            s for k in (1, 2, 3) for s in combinations(range(3), k)
        ]
        index = {s: i for i, s in enumerate(subsets)}
        less = [
            (index[a], index[b])
            for a in subsets
            for b in subsets
            if set(a) < set(b)
        ]
        p = Poset.from_relation(
            range(len(subsets)), less, {index[s]: len(s) - 1 for s in subsets}
        )
        assert validate_poset(p) == []
        # brute-force cover count: 3 singletons x 2 pairs above, 3 pairs x top
        assert len(p.covers) == 9

    def test_cyclic_relation_rejected(self):
        with pytest.raises(ValueError, match="relation contains a cycle"):
            Poset.from_relation(range(3), [(0, 1), (1, 0), (1, 2)])

    def test_transitive_shortcut_reported(self):
        p = Poset((0, 1, 2), ((0, 1), (1, 2), (0, 2)))
        assert any("shortcut" in msg for msg in validate_poset(p))

    def test_grade_violation_reported(self):
        p = Poset((0, 1), ((0, 1),), {0: 1, 1: 0})
        assert any("grade" in msg for msg in validate_poset(p))


class TestOpposite:
    def test_chain_reverses(self):
        op = opposite(chain(2))
        assert set(op.covers) == {(1, 0), (2, 1)}

    def test_antichain_fixed(self):
        op = opposite(antichain(3))
        assert op.covers == ()

    def test_face_poset_of_interval(self):
        # two vertices under one edge; the dual has one bottom, two tops
        p = Poset((0, 1, 2), ((0, 2), (1, 2)), {0: 0, 1: 0, 2: 1})
        op = opposite(p)
        minima = [e for e in op.elements if not op.down_set(e)]
        assert minima == [2]

    def test_involution_on_random_posets(self):
        rng = random.Random(7)
        for _ in range(10):
            p = random_poset(rng)
            back = opposite(opposite(p))
            assert back.elements == p.elements
            assert set(back.covers) == set(p.covers)

    def test_order_complex_of_opposite_matches(self):
        rng = random.Random(11)
        for _ in range(5):
            p = random_poset(rng)
            a, b = order_complex(p), order_complex(opposite(p))
            assert f_vector(a) == f_vector(b)
            assert homology(chain_complex(a)) == homology(chain_complex(b))


class TestProduct:
    def test_square_of_interval(self):
        p = product(chain(1), chain(1))
        assert len(p.elements) == 4
        assert len(p.comparable_pairs()) == 5
        maximal = [c for c in p.chains() if len(c) == 3]
        assert len(maximal) == 2

    def test_point_is_unit(self):
        p = chain(2)
        q = product(p, chain(0))
        assert are_isomorphic(p, q)

    def test_grid(self):
        p = product(chain(2), chain(2))
        assert len(p.elements) == 9
        assert p.height() == 4

    def test_euler_multiplicativity(self):
        rng = random.Random(3)
        for _ in range(5):
            p, q = random_poset(rng, 5), random_poset(rng, 4)
            chi = euler_characteristic(order_complex(product(p, q)))
            chi_p = euler_characteristic(order_complex(p))
            chi_q = euler_characteristic(order_complex(q))
            assert chi == chi_p * chi_q


class TestOrderComplex:
    def test_chain_gives_simplex(self):
        k = order_complex(chain(2))
        assert f_vector(k) == (3, 3, 1)
        assert validate_delta(k) == []
        assert homology(chain_complex(k)).betti == (1, 0, 0)

    def test_antichain(self):
        k = order_complex(antichain(2))
        assert f_vector(k) == (2,)
        assert homology(chain_complex(k)).betti == (2,)

    def test_bowtie_poset_is_circle(self):
        # both minima below both maxima: the 4-cycle
        p = Poset.from_relation(
            range(4), [(0, 2), (0, 3), (1, 2), (1, 3)], {0: 0, 1: 0, 2: 1, 3: 1}
        )
        k = order_complex(p)
        assert f_vector(k) == (4, 4)
        h = homology(chain_complex(k))
        assert h.betti == (1, 1) and not any(h.torsion)

    def test_cells_strictly_ordered(self):
        rng = random.Random(5)
        p = random_poset(rng)
        k = order_complex(p)
        for dim, layer in enumerate(k.cells):
            for c in layer:
                assert len(set(c)) == dim + 1
                assert all(p.less(c[i], c[i + 1]) for i in range(dim))
        assert {c for layer in k.cells for c in layer} == set(p.chains())
        assert p.height() == k.dim()


def test_isomorphism_respects_grades():
    p = chain(2)
    q = Poset((0, 1, 2), ((0, 1), (1, 2)), {0: 0, 1: 2, 2: 3})
    assert not are_isomorphic(p, q)
    relabeled = Poset((5, 6, 7), ((5, 6), (6, 7)), {5: 0, 6: 1, 7: 2})
    assert are_isomorphic(p, relabeled)
