from collections import Counter

import pytest

from stratakit.category import (
    AcyclicCategory,
    categories_isomorphic,
    lower_star,
    sd_category,
    underlying_poset,
    upper_star,
)
from stratakit.css import (
    CombinatorialCSS,
    SubdivisionData,
    _computed_closed_flags,
    cellular_closure,
    dual,
    identity_subdivision,
    link_poset,
    make_css,
    poset_to_css,
    product_css,
    quotient_css,
    remove_closed_subcomplex,
    salvetti_complex,
    salvetti_partition,
    sd,
    subdivide,
    validate_total_normality,
)
from stratakit.delta import euler_characteristic, f_vector, face_poset
from stratakit.fixtures import (
    boundary_simplex,
    circle_minimal,
    circle_subdivided,
    punctured_torus,
    rp2,
    simplex,
    torus,
    y_space,
)
from stratakit.homology import chain_complex, homology
from stratakit.poset import Poset, are_isomorphic


def minimal_sphere2():
    """S^2 = e^0 u e^2 with a single lift: not totally normal."""
    c = AcyclicCategory(
        ("v", "top"),
        ("b",),
        {"b": "v"},
        {"b": "top"},
        {},
        {"v": 0, "top": 2},
    )
    return CombinatorialCSS(c, {"v": True, "top": True})


class TestValidation:
    def test_minimal_circle_valid(self):
        assert validate_total_normality(circle_minimal()) == []

    def test_punctured_torus_valid_with_open_top(self):
        pt = punctured_torus()
        assert validate_total_normality(pt) == []
        # every remaining cell lost the vertex from its closure
        assert not any(pt.closed[v] for v in pt.cells())
        lk = link_poset(pt, ("e", "e"))
        assert len(lk.elements) == 4 and not lk.comparable_pairs()

    def test_minimal_sphere_rejected(self):
        problems = validate_total_normality(minimal_sphere2())
        assert any("top" in p and "sphere" in p for p in problems)

    def test_dimension_raising_enforced(self):
        c = AcyclicCategory(
            ("x", "y"), ("f",), {"f": "x"}, {"f": "y"}, {}, {"x": 1, "y": 1}
        )
        problems = validate_total_normality(
            CombinatorialCSS(c, {"x": False, "y": False})
        )
        assert any("raise dimension" in p for p in problems)

    def test_closed_flag_crosscheck(self):
        # flagging the punctured torus top cell closed must fail
        pt = punctured_torus()
        bad = CombinatorialCSS(pt.cat, {**pt.closed, ("e", "e"): True})
        assert validate_total_normality(bad)

    def test_a_closed_flag_for_a_non_cell_is_reported(self):
        # make_css used to accept it, and the JSON dump dropped the flag
        x = rp2()
        ghost = CombinatorialCSS(x.cat, {**x.closed, "ghost": False})
        assert validate_total_normality(ghost) == [
            "object 'ghost': closed flag given, but it is not a cell"
        ]
        with pytest.raises(ValueError, match="'ghost': closed flag given"):
            make_css(x.cat, ghost.closed)
        # after the per-cell diagnostics, in flag order
        cells = x.cells()
        closed = {"ghost": True, **{v: x.closed[v] for v in cells[1:]}, 7: False}
        assert validate_total_normality(CombinatorialCSS(x.cat, closed)) == [
            f"cell {cells[0]!r}: no closedness flag",
            "object 'ghost': closed flag given, but it is not a cell",
            "object 7: closed flag given, but it is not a cell",
        ]

    def test_negative_dimensions_are_reported(self):
        # a cell is a disk D^n with n >= 0; both cells are named, and the
        # lift, which raises dimension, is not
        c = AcyclicCategory(
            ("a", "b"), ("f",), {"f": "a"}, {"f": "b"}, {}, {"a": -3, "b": -1}
        )
        closed = {"a": False, "b": False}
        want = ["cell 'a': negative dimension -3", "cell 'b': negative dimension -1"]
        assert validate_total_normality(CombinatorialCSS(c, closed)) == want
        assert _computed_closed_flags(c) == closed
        for flags in (None, closed):
            with pytest.raises(ValueError, match="'a': negative dimension -3"):
                make_css(c, flags)
        # after the missing-dimension and missing-flag diagnostics, alone
        bare = CombinatorialCSS(c, {"a": False})
        assert validate_total_normality(bare) == ["cell 'b': no closedness flag"]

    def test_y_space_valid_despite_spherical_link(self):
        # the category cannot refute closedness of the tail cell; the
        # user-supplied non-closed flag must be accepted
        assert validate_total_normality(y_space()) == []
        assert not y_space().closed["e"]


class TestSd:
    def test_values(self):
        assert f_vector(sd(circle_minimal())) == (2, 2)
        assert f_vector(sd(punctured_torus())) == (3, 4)
        assert f_vector(sd(simplex(2))) == (7, 12, 6)

    def test_homology(self):
        assert homology(chain_complex(sd(circle_minimal()))).betti == (1, 1)
        assert homology(chain_complex(sd(punctured_torus()))).betti == (1, 2)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            sd(minimal_sphere2())


class TestSalvettiPartition:
    def test_blocks_biject_with_cells(self):
        for x in (simplex(2), circle_minimal()):
            part = salvetti_partition(x)
            assert set(part.source_block_sizes()) == set(x.cells())
            assert set(part.target_block_sizes()) == set(x.cells())

    def test_blocks_in_first_tag_order(self):
        for x in (simplex(2), circle_minimal(), torus()):
            part = salvetti_partition(x)
            assert list(part.source_block_sizes()) == list(x.cells())
            assert list(part.target_block_sizes()) == list(x.cells())

    def test_circle_splits(self):
        part = salvetti_partition(circle_minimal())
        assert part.target_block_sizes() == {"v": 1, "e": 3}
        assert part.source_block_sizes() == {"v": 3, "e": 1}

    def test_one_cell_complex(self):
        x = poset_to_css(Poset((0,), (), {0: 0}))
        part = salvetti_partition(x)
        assert part.source_block_sizes() == {0: 1}
        assert part.target_block_sizes() == {0: 1}

    def test_closed_block_sizes_are_star_totals(self):
        x = simplex(2)
        part = salvetti_partition(x)
        up = underlying_poset(x.cat)
        idx = {up.labels[e]: e for e in up.elements}
        src_count = part.source_block_sizes()
        tgt_count = part.target_block_sizes()
        for cell in x.cells():
            above = [c for c in x.cells() if up.leq(idx[cell], idx[c])]
            below = [c for c in x.cells() if up.leq(idx[c], idx[cell])]
            assert sum(src_count[c] for c in above) == sum(
                f_vector(upper_star(x.cat, cell))
            )
            assert sum(tgt_count[c] for c in below) == sum(
                f_vector(lower_star(x.cat, cell))
            )

    def test_triangle_source_blocks(self):
        x = simplex(2)
        blocks = salvetti_partition(x).source_block_sizes()
        by_dim = Counter()
        for cell, size in blocks.items():
            by_dim[x.dim(cell)] += size
        # vertices start 6 chains each, edges 2, the triangle only itself
        assert blocks[(0, 1, 2)] == 1
        assert all(blocks[(i,)] == 6 for i in range(3))
        assert sum(blocks.values()) == sum(f_vector(sd(x)))


class TestDual:
    def test_triangle_counts(self):
        d = dual(simplex(2))
        assert Counter(d.cat.grades.values()) == Counter({0: 1, 1: 3, 2: 3})

    def test_point(self):
        pt = poset_to_css(Poset((0,), (), {0: 0}))
        d = dual(pt)
        assert len(d.cells()) == 1 and d.cat.grades[0] == 0

    def test_y_space(self):
        d = dual(y_space())
        assert d.cat.grades == {"v": 1, "e": 0}
        assert len(d.cat.morphisms) == 2

    def test_double_dual_keeps_underlying_poset(self):
        # the order is restored even when the dual dimensions shrink
        # (non-closed inputs slim down under the double dual)
        for x in (simplex(2), punctured_torus(), y_space()):
            dd = salvetti_complex(x)
            assert dd.cells() == x.cells()
            lhs, rhs = underlying_poset(dd.cat), underlying_poset(x.cat)
            assert set(lhs.covers) == set(rhs.covers)


class TestSalvettiComplex:
    def test_simplices_restored(self):
        for n in (1, 2, 3):
            x = simplex(n)
            dd = salvetti_complex(x)
            assert set(dd.cells()) == set(x.cells())
            assert dd.cat.grades == x.cat.grades
            assert set(dd.cat.morphisms) == set(x.cat.morphisms)
            assert dd.cat.compose == x.cat.compose
            assert all(dd.closed[v] for v in dd.cells())

    def test_point(self):
        pt = poset_to_css(Poset((0,), (), {0: 0}))
        assert len(salvetti_complex(pt).cells()) == 1

    def test_y_space_slims_to_circle(self):
        dd = salvetti_complex(y_space())
        assert categories_isomorphic(dd.cat, circle_minimal().cat)
        assert all(dd.closed[v] for v in dd.cells())


class TestProduct:
    def test_torus(self):
        t = torus()
        assert len(t.cells()) == 4
        assert len(t.cat.hom(("v", "v"), ("e", "e"))) == 4
        h = homology(chain_complex(sd(t)))
        assert h.betti == (1, 2, 1)

    def test_point_is_unit(self):
        pt = poset_to_css(Poset((0,), (), {0: 0}))
        p = product_css(circle_minimal(), pt)
        assert categories_isomorphic(p.cat, circle_minimal().cat)

    def test_euler_multiplicativity_closed(self):
        cyl = product_css(circle_minimal(), simplex(1))
        chi = euler_characteristic(sd(cyl))
        chi_circle = euler_characteristic(sd(circle_minimal()))
        chi_interval = euler_characteristic(sd(simplex(1)))
        assert chi == chi_circle * chi_interval == 0

    def test_closed_flags_anded(self):
        p = product_css(y_space(), circle_minimal())
        assert not p.closed[("e", "v")]
        assert p.closed[("v", "v")] and p.closed[("v", "e")]


class TestComplementAndClosure:
    def test_torus_minus_vertex(self):
        pt = remove_closed_subcomplex(torus(), [("v", "v")])
        h = homology(chain_complex(sd(pt)))
        assert h.betti == (1, 2)

    def test_remove_nothing(self):
        x = torus()
        same = remove_closed_subcomplex(x, [])
        assert set(same.cells()) == set(x.cells())
        assert same.closed == x.closed

    def test_remove_top_cell_of_triangle(self):
        rim = remove_closed_subcomplex(simplex(2), [(0, 1, 2)])
        assert homology(chain_complex(sd(rim))).betti == (1, 1)
        assert all(rim.closed[v] for v in rim.cells())

    def test_mixed_removal_rejected(self):
        edge = next(v for v in simplex(2).cells() if len(v) == 2)
        with pytest.raises(ValueError, match="neither down-closed nor up-closed"):
            remove_closed_subcomplex(simplex(2), [edge])

    def test_closure_of_punctured_torus(self):
        t = torus()
        back = cellular_closure(punctured_torus())
        assert set(back.cells()) == set(t.cells())
        assert back.cat.compose == t.cat.compose
        assert all(back.closed[v] for v in back.cells())

    def test_closure_is_identity_on_closed(self):
        x = simplex(2)
        assert set(cellular_closure(x).cells()) == set(x.cells())

    def test_closure_refills_boundary_simplex(self):
        x = boundary_simplex(2)
        vertex = next(v for v in x.cells() if len(v) == 1)
        cut = remove_closed_subcomplex(x, [vertex])
        assert len(cut.cells()) == 5
        assert set(cellular_closure(cut).cells()) == set(x.cells())

    def test_closure_needs_certificate(self):
        with pytest.raises(ValueError, match="certificate"):
            cellular_closure(punctured_torus().ambient and y_space())

    def test_minimal_closure_inside_larger_ambient(self):
        # cut the rim out of the full triangle: the closure must be the
        # rim itself, not the whole ambient
        rim_cells = [v for v in simplex(2).cells() if len(v) <= 2]
        rim = remove_closed_subcomplex(simplex(2), [(0, 1, 2)])
        assert set(cellular_closure(rim).cells()) == set(rim_cells)


def torus_diagonal_plan(t):
    """Subdivide the square cell of the torus along its diagonal."""
    plan = identity_subdivision(t)
    sq = ("e", "e")
    lk = link_poset(t, sq)
    bymid = {lk.labels[e]: e for e in lk.elements}
    corner_mm = bymid[("b-", "b-")]
    corner_pp = bymid[("b+", "b+")]
    corner_pm = bymid[("b+", "b-")]
    corner_mp = bymid[("b-", "b+")]
    e_right = bymid[("b+", ("1", "e"))]
    e_left = bymid[("b-", ("1", "e"))]
    e_bot = bymid[(("1", "e"), "b-")]
    e_top = bymid[(("1", "e"), "b+")]
    DIAG, LOW, UP = 100, 101, 102
    elems = list(lk.elements) + [DIAG, LOW, UP]
    grades = dict(lk.grades)
    grades.update({DIAG: 1, LOW: 2, UP: 2})
    less = list(lk.comparable_pairs())
    less += [(corner_mm, DIAG), (corner_pp, DIAG), (DIAG, LOW), (DIAG, UP)]
    less += [
        (corner_mm, LOW),
        (corner_pp, LOW),
        (corner_pm, LOW),
        (e_right, LOW),
        (e_bot, LOW),
    ]
    less += [
        (corner_mm, UP),
        (corner_pp, UP),
        (corner_mp, UP),
        (e_left, UP),
        (e_top, UP),
    ]
    plan.domain[sq] = Poset.from_relation(elems, less, grades)
    plan.interior[sq] = frozenset([DIAG, LOW, UP])
    return plan


class TestSubdivide:
    def test_identity_plan(self):
        for x in (circle_minimal(), simplex(2), punctured_torus()):
            again = subdivide(x, identity_subdivision(x))
            assert categories_isomorphic(x.cat, again.cat)

    def test_bisect_circle_edge(self):
        x = circle_minimal()
        lk = link_poset(x, "e")
        bminus = next(e for e in lk.elements if lk.labels[e] == "b-")
        bplus = next(e for e in lk.elements if lk.labels[e] == "b+")
        dom = Poset.from_relation(
            range(5),
            [(bminus, 3), (2, 3), (2, 4), (bplus, 4)],
            {bminus: 0, bplus: 0, 2: 0, 3: 1, 4: 1},
        )
        plan = SubdivisionData(
            domain={"v": identity_subdivision(x).domain["v"], "e": dom},
            interior={"v": frozenset([0]), "e": frozenset([2, 3, 4])},
            on_lift={"b-": {0: bminus}, "b+": {0: bplus}},
        )
        bis = subdivide(x, plan)
        assert categories_isomorphic(bis.cat, circle_subdivided().cat)
        assert homology(chain_complex(sd(bis))).betti == (1, 1)

    def test_homology_invariant_under_subdivision(self):
        x = circle_minimal()
        assert homology(chain_complex(sd(x))) == homology(
            chain_complex(sd(circle_subdivided()))
        )

    def test_underlying_poset_surjects(self):
        t = torus()
        sub = subdivide(t, torus_diagonal_plan(t))
        p_orig = underlying_poset(t.cat)
        labels = {e: p_orig.labels[e] for e in p_orig.elements}
        projected = {v[0] for v in sub.cells()}
        assert projected == set(labels.values())

    def test_torus_diagonal_gives_conf2_circle(self):
        from stratakit.graphconf import conf_category, loop_graph

        t = torus()
        sub = subdivide(t, torus_diagonal_plan(t))
        assert len(sub.cells()) == 6
        removed = [v for v in sub.cells() if v[1] == 100 or v[0] == ("v", "v")]
        conf_part = remove_closed_subcomplex(sub, removed)
        direct = conf_category(loop_graph(), 2)
        assert categories_isomorphic(conf_part.cat, direct.cat)

    def test_missing_plan_rejected(self):
        x = circle_minimal()
        plan = identity_subdivision(x)
        del plan.domain["e"]
        with pytest.raises(ValueError, match="plan"):
            subdivide(x, plan)

    def test_uncovered_boundary_rejected(self):
        x = circle_minimal()
        plan = identity_subdivision(x)
        # orphan boundary piece in the edge domain
        dom = plan.domain["e"]
        bigger = Poset.from_relation(
            list(dom.elements) + [99],
            list(dom.comparable_pairs()) + [(99, 2)],
            {**dom.grades, 99: 0},
        )
        plan.domain["e"] = bigger
        with pytest.raises(ValueError, match="covered"):
            subdivide(x, plan)


class TestSdOfCategoryTheorem:
    def test_graded_poset_isomorphism(self):
        # Sd(C(X)) vs the face poset of Sd(X), built through independent
        # code paths (factorization search vs iterated face maps)
        for x in (circle_minimal(), simplex(2), punctured_torus(), rp2()):
            lhs = sd_category(x.cat)
            rhs = face_poset(sd(x))
            assert are_isomorphic(lhs, rhs)


class TestQuotientCss:
    def test_conf_loop(self):
        from stratakit.graphconf import conf_category, loop_graph, sigma_action

        css = conf_category(loop_graph(), 2)
        q = quotient_css(css, sigma_action(css, 2))
        assert f_vector(sd(q)) == (2, 2)
        assert homology(chain_complex(sd(q))).betti == (1, 1)


def test_euler_from_cells_on_closed_complexes():
    for x in (simplex(3), boundary_simplex(3), torus(), rp2()):
        assert all(x.closed[v] for v in x.cells())
        cell_sum = sum((-1) ** x.dim(v) for v in x.cells())
        assert euler_characteristic(sd(x)) == cell_sum
