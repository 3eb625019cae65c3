import functools
import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit.delta import (
    DeltaComplex,
    components,
    euler_characteristic,
    f_vector,
    validate_delta,
)
from stratakit.arrangement import braid_arrangement, complement_poset
from stratakit.css import product_css, salvetti_complex, sd
from stratakit.fixtures import (
    CSS_FIXTURES,
    boundary_simplex,
    circle_minimal,
    punctured_torus,
    rp2,
    simplex,
)
from stratakit.graphconf import conf_category, k5_graph
from stratakit.homology import (
    ChainComplex,
    _dense_snf,
    _rank,
    _unit_reduce,
    chain_complex,
    homology,
    integer_rank,
    snf_diagonal,
)
from stratakit.poset import Poset, order_complex


def two_cell_circle():
    # two vertices, two edges both running p -> q
    return DeltaComplex(
        ((0, 1), ("a", "b")),
        ((((1, 0)), (1, 0)),),
    )


class TestChainComplex:
    def test_circle_boundary_matrix(self):
        cc = chain_complex(two_cell_circle())
        # d1 columns: q - p for both edges
        assert cc.boundary(1) == {(0, 0): -1, (1, 0): 1, (0, 1): -1, (1, 1): 1}
        h = homology(cc)
        assert h.betti == (1, 1)

    def test_single_vertex(self):
        cc = chain_complex(DeltaComplex(((0,),), ()))
        assert cc.shape == (1,)
        assert homology(cc).betti == (1,)

    def test_triangle_dd_zero(self):
        k = order_complex(
            Poset((0, 1, 2), ((0, 1), (1, 2)), {i: i for i in range(3)})
        )
        cc = chain_complex(k)  # raises if boundary squared is nonzero
        assert homology(cc).betti == (1, 0, 0)

    def test_dd_violation_detected(self):
        # a fake 2-cell whose faces do not satisfy the identities
        k = DeltaComplex(
            ((0, 1, 2), ("a", "b", "c"), ("T",)),
            (
                ((1, 0), (2, 0), (2, 1)),
                ((0, 1, 0),),
            ),
        )
        assert validate_delta(k)


class TestHomology:
    def test_boundary_of_tetrahedron(self):
        h = homology(chain_complex(sd(boundary_simplex(3))))
        assert h.betti == (1, 0, 1)
        assert not any(h.torsion)

    def test_projective_plane_torsion(self):
        h = homology(chain_complex(sd(rp2())))
        assert h.betti == (1, 0, 0)
        assert h.torsion == ((), (2,), ())

    def test_rank_only_mode_matches(self):
        for fixture in (boundary_simplex(3), rp2(), punctured_torus()):
            cc = chain_complex(sd(fixture))
            assert homology(cc, rank_only=True).betti == homology(cc).betti

    def test_relabeling_invariance(self):
        rng = random.Random(2)
        k = sd(rp2())
        perms = [list(range(len(layer))) for layer in k.cells]
        for p in perms:
            rng.shuffle(p)
        inverse = [
            {old: new for new, old in enumerate(p)} for p in perms
        ]
        cells = tuple(
            tuple(layer[p.index(i)] for i in range(len(layer)))
            for layer, p in zip(k.cells, perms)
        )
        faces = []
        for n in range(1, k.dim() + 1):
            rows = [None] * k.size(n)
            for c in range(k.size(n)):
                rows[inverse[n][c]] = tuple(
                    inverse[n - 1][f] for f in k.faces[n - 1][c]
                )
            faces.append(tuple(rows))
        shuffled = DeltaComplex(cells, tuple(faces))
        assert validate_delta(shuffled) == []
        assert homology(chain_complex(shuffled)) == homology(chain_complex(k))


class TestSmithNormalForm:
    def test_divisibility_chain(self):
        rng = random.Random(9)
        for _ in range(25):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            mat = {
                (i, j): rng.randrange(-8, 9)
                for i in range(m)
                for j in range(n)
                if rng.random() < 0.7
            }
            diag = snf_diagonal(mat)
            assert all(d > 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            assert len(diag) == integer_rank(mat)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(13)
        for _ in range(15):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [
                [rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)
            ]
            mat = {
                (i, j): rows[i][j]
                for i in range(m)
                for j in range(n)
                if rows[i][j]
            }
            expected = smith_normal_form(sympy.Matrix(rows))
            exp_diag = sorted(
                abs(expected[i, i])
                for i in range(min(m, n))
                if expected[i, i] != 0
            )
            assert sorted(snf_diagonal(mat)) == exp_diag


class TestCounting:
    def test_punctured_torus_counts(self):
        k = sd(punctured_torus())
        assert f_vector(k) == (3, 4)
        assert euler_characteristic(k) == -1

    def test_empty_complex(self):
        k = DeltaComplex((), ())
        assert f_vector(k) == ()
        assert euler_characteristic(k) == 0
        assert components(k) == 0

    def test_two_points(self):
        k = DeltaComplex(((0, 1),), ())
        assert components(k) == 2

    def test_euler_equals_alternating_betti(self):
        for fixture in (simplex(2), boundary_simplex(3), rp2(), punctured_torus()):
            k = sd(fixture)
            h = homology(chain_complex(k))
            assert euler_characteristic(k) == sum(
                (-1) ** n * b for n, b in enumerate(h.betti)
            )


# ------------------------------------- reference: heap-driven unit pivoting


class RefSparseMatrix:
    """Unit pivots chosen by lowest Markowitz score from a heap."""

    def __init__(self, mat):
        self.rows = {}
        self.cols = {}
        for (i, j), v in mat.items():
            if v:
                self.rows.setdefault(i, {})[j] = v
                self.cols.setdefault(j, set()).add(i)

    def _set(self, i, j, v):
        if v:
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)
        else:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
                self.cols[j].discard(i)
                if not self.cols[j]:
                    del self.cols[j]

    def eliminate_units(self):
        heap = []
        for i, row in self.rows.items():
            for j, v in row.items():
                if v in (1, -1):
                    heap.append(((len(row) - 1) * (len(self.cols[j]) - 1), i, j))
        heapq.heapify(heap)
        count = 0
        while heap:
            score, i, j = heapq.heappop(heap)
            v = self.rows.get(i, {}).get(j, 0)
            if v not in (1, -1):
                continue
            cur = (len(self.rows[i]) - 1) * (len(self.cols[j]) - 1)
            if cur > score:
                heapq.heappush(heap, (cur, i, j))
                continue
            pivot_row = dict(self.rows[i])
            for i2 in list(self.cols[j]):
                if i2 == i:
                    continue
                factor = self.rows[i2][j] * v
                for j2, u in pivot_row.items():
                    nv = self.rows.get(i2, {}).get(j2, 0) - factor * u
                    self._set(i2, j2, nv)
                    if nv in (1, -1):
                        r2 = self.rows.get(i2, {})
                        score = (len(r2) - 1) * (len(self.cols[j2]) - 1)
                        heapq.heappush(heap, (score, i2, j2))
            for j2 in list(pivot_row):
                self._set(i, j2, 0)
            count += 1
        return count

    def dense_residual(self):
        col_pos = {j: c for c, j in enumerate(sorted(self.cols))}
        out = [[0] * len(col_pos) for _ in self.rows]
        for r, i in enumerate(sorted(self.rows)):
            for j, v in self.rows[i].items():
                out[r][col_pos[j]] = v
        return out


def ref_snf_diagonal(mat):
    sparse = RefSparseMatrix(mat)
    units = sparse.eliminate_units()
    return [1] * units + _dense_snf(sparse.dense_residual())


def ref_integer_rank(mat):
    sparse = RefSparseMatrix(mat)
    units = sparse.eliminate_units()
    return units + _rank(sparse.dense_residual())


@st.composite
def sparse_matrices(draw):
    """Up to 25 x 25, mostly +-1, with explicit zeros, +-2 and +-3 entries;
    indices are drawn sparsely, so rows and columns may be empty."""
    m = draw(st.integers(0, 25))
    n = draw(st.integers(0, 25))
    if not m or not n:
        return {}
    value = st.sampled_from([1, -1] * 6 + [0, 2, -2, 3, -3])
    key = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    return draw(st.dictionaries(key, value, max_size=min(m * n, 120)))


# nerves and an order complex beyond the CSS fixtures: the Salvetti
# complex (double dual) of each fixture, Conf_2(K5), and the order
# complex of braid(4)'s order-2 complement (2688 edges, 5952 triangles)
MORE_COMPLEXES = {
    **{
        f"salvetti {name}": (lambda make=make: sd(salvetti_complex(make())))
        for name, make in CSS_FIXTURES.items()
    },
    "conf_2 K5": lambda: sd(conf_category(k5_graph(), 2)),
    "braid(4) order 2": lambda: order_complex(
        complement_poset(braid_arrangement(4), 2)
    ),
}


@functools.lru_cache(maxsize=None)
def more_chains(name):
    return chain_complex(MORE_COMPLEXES[name]())


def assert_unit_reduce_matches(mat, skip=()):
    """_unit_reduce of mat, skipping columns, against the heap elimination
    of mat without those columns."""
    kept = {(i, j): v for (i, j), v in mat.items() if j not in skip}
    pivots, residual = _unit_reduce(mat, skip)
    assert [1] * len(pivots) + _dense_snf(residual) == ref_snf_diagonal(kept)
    assert len(pivots) + _rank(residual) == ref_integer_rank(kept)


# Fixed matrices that reach each branch of the left-looking reduction. Each
# is also reduced with every single column skipped.
BRANCH_MATRICES = {
    # column 0's largest row holds 2 while a smaller row holds 1, so it
    # goes to the residual; so does column 1 (largest row 0 holds 2)
    "non-unit low over a unit": ({(0, 0): 1, (1, 0): 2, (0, 1): 2}, [1, 4]),
    # column 0 = 2 e_0 goes to the residual; column 1 then pivots on row 0,
    # and the final clearing must zero column 0
    "residual cleared by a later pivot": ({(0, 0): 2, (0, 1): 1}, [1]),
    # column 0 = 2 e_2; column 1 = e_1 + e_2 pivots on row 2 and column
    # 2 = e_1 on row 1; clearing column 0 of row 2 puts -2 into row 1, a
    # pivot row too, which must be cleared next
    "clearing reaches a smaller pivot row": (
        {(2, 0): 2, (1, 1): 1, (2, 1): 1, (1, 2): 1},
        [1, 1],
    ),
    # column 1's largest row is column 0's pivot row; subtracting that
    # pivot (stored with entry -1) leaves 3 e_0, which goes to the residual
    "reduced by a pivot scaled from -1": (
        {(0, 0): 1, (1, 0): -1, (0, 1): 2, (1, 1): 1},
        [1, 3],
    ),
}


class TestUnitReduction:
    @pytest.mark.parametrize("name", sorted(BRANCH_MATRICES))
    def test_branch_matrices(self, name):
        mat, expected = BRANCH_MATRICES[name]
        assert snf_diagonal(mat) == expected
        columns = sorted({j for _, j in mat})
        for skip in [()] + [{j} for j in columns]:
            assert_unit_reduce_matches(mat, skip)

    @pytest.mark.parametrize("name", sorted(MORE_COMPLEXES))
    def test_more_boundary_maps(self, name):
        for mat in more_chains(name).boundaries:
            assert snf_diagonal(mat) == ref_snf_diagonal(mat)
            assert integer_rank(mat) == ref_integer_rank(mat)

    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices(), st.sets(st.integers(0, 24), max_size=8))
    def test_matches_heap_elimination(self, mat, skip):
        assert snf_diagonal(mat) == ref_snf_diagonal(mat)
        assert integer_rank(mat) == ref_integer_rank(mat)
        assert_unit_reduce_matches(mat, skip)

    def test_fixture_boundary_maps(self):
        spaces = [make() for make in CSS_FIXTURES.values()]
        spaces.append(product_css(rp2(), rp2()))
        assert len(spaces) == 13
        for x in spaces:
            for mat in chain_complex(sd(x)).boundaries:
                assert snf_diagonal(mat) == ref_snf_diagonal(mat)
                assert integer_rank(mat) == ref_integer_rank(mat)


# ------------------------------- reference: each boundary map on its own


def ref_homology(cc, rank_only=False):
    """Homology with every boundary map reduced separately, no clearing."""
    top = len(cc.shape) - 1
    ranks = []
    torsions = []
    for n in range(1, top + 2):
        mat = cc.boundary(n)
        if rank_only:
            ranks.append(integer_rank(mat))
            torsions.append(())
        else:
            diag = snf_diagonal(mat)
            ranks.append(len(diag))
            torsions.append(tuple(d for d in diag if d > 1))
    betti = []
    for n in range(top + 1):
        rank_in = ranks[n - 1] if n >= 1 else 0
        betti.append(cc.shape[n] - rank_in - ranks[n])
    return tuple(betti), tuple(torsions)


def assert_same_as_reference(cc):
    for rank_only in (False, True):
        h = homology(cc, rank_only=rank_only)
        assert (h.betti, h.torsion) == ref_homology(cc, rank_only)


@st.composite
def relations(draw):
    """A strict order on up to 10 elements, drawn as pairs a < b."""
    n = draw(st.integers(1, 10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    less = [(a, b) for a, b in draw(st.lists(pairs, max_size=40)) if a < b]
    return Poset.from_relation(range(n), less)


# products of these take at most a fraction of a second to subdivide
SMALL_FIXTURES = sorted(
    set(CSS_FIXTURES) - {"simplex-3", "boundary-simplex-3"}
)


@functools.lru_cache(maxsize=None)
def product_chains(left, right):
    return chain_complex(
        sd(product_css(CSS_FIXTURES[left](), CSS_FIXTURES[right]()))
    )


class TestClearing:
    @settings(max_examples=200, deadline=None)
    @given(relations())
    def test_order_complexes_match_per_matrix_homology(self, p):
        assert_same_as_reference(chain_complex(order_complex(p)))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMALL_FIXTURES), st.sampled_from(SMALL_FIXTURES))
    def test_fixture_products_match_per_matrix_homology(self, left, right):
        assert_same_as_reference(product_chains(left, right))

    def test_fixture_nerves(self):
        assert len(CSS_FIXTURES) == 12
        for make in CSS_FIXTURES.values():
            assert_same_as_reference(chain_complex(sd(make())))

    def test_rp2_products(self):
        cc = chain_complex(sd(product_css(rp2(), rp2())))
        assert_same_as_reference(cc)
        assert homology(cc).torsion == ((), (2, 2), (2,), (2,), ())
        cc = chain_complex(sd(product_css(rp2(), boundary_simplex(3))))
        assert_same_as_reference(cc)
        h = homology(cc)
        assert (h.betti, h.torsion) == ((1, 0, 1, 0, 0), ((), (2,), (), (2,), ()))

    def test_rp2_rp2_circle(self):
        x = product_css(product_css(rp2(), rp2()), circle_minimal())
        cc = chain_complex(sd(x))
        assert_same_as_reference(cc)
        h = homology(cc)
        assert h.betti == (1, 1, 0, 0, 0, 0)
        assert h.torsion == ((), (2, 2), (2, 2, 2), (2, 2), (2,), ())

    @pytest.mark.parametrize("name", sorted(MORE_COMPLEXES))
    def test_more_complexes_match_per_matrix_homology(self, name):
        assert_same_as_reference(more_chains(name))

    def test_braid4_order2_complement(self):
        # Orlik-Solomon: prod_{j<4} (1 + j t) = 1 + 6t + 11t^2 + 6t^3
        h = homology(more_chains("braid(4) order 2"))
        assert h.betti == (1, 6, 11, 6) and not any(h.torsion)

    def test_conf2_k5(self):
        h = homology(more_chains("conf_2 K5"))
        assert h.betti == (1, 12, 1) and not any(h.torsion)

    def test_row_outside_shape_raises(self):
        # the edge's boundary names vertex 5, but there is only vertex 0
        cc = ChainComplex((1, 1), ({(5, 0): 1},))
        for rank_only in (False, True):
            with pytest.raises(ValueError, match=r"d_1 .* row 5"):
                homology(cc, rank_only=rank_only)

    def test_map_above_top_raises(self):
        # a d_2 with an entry, but no C_2 for its column to name
        cc = ChainComplex((1, 1), ({(0, 0): 1}, {(0, 0): 1}))
        for rank_only in (False, True):
            with pytest.raises(ValueError, match=r"d_2 .* column 0"):
                homology(cc, rank_only=rank_only)

    def test_negative_betti_raises(self):
        # d1 . d2 = 2, not 0: rank d1 + rank d2 = 2 > |C_1| = 1
        cc = ChainComplex((1, 1, 1), ({(0, 0): 1}, {(0, 0): 2}))
        for rank_only in (False, True):
            with pytest.raises(RuntimeError, match="dimension 1"):
                homology(cc, rank_only=rank_only)
