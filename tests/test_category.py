import pytest

from stratakit.category import (
    AcyclicCategory,
    GroupActionOnCategory,
    categories_isomorphic,
    grothendieck,
    lower_link,
    lower_star,
    nondegenerate_nerve,
    opposite_category,
    product_category,
    quotient_by_free_action,
    sd_category,
    underlying_poset,
    upper_link,
    upper_star,
    validate_category,
)
from stratakit.css import make_css, product_css, sd, validate_total_normality
from stratakit.delta import euler_characteristic, f_vector, validate_delta
from stratakit.fixtures import CSS_FIXTURES, circle_minimal, punctured_torus, simplex
from stratakit.homology import chain_complex, homology
from stratakit.poset import Poset, order_complex, validate_poset


def chain_cat(n):
    p = Poset(
        tuple(range(n + 1)),
        tuple((i, i + 1) for i in range(n)),
        {i: i for i in range(n + 1)},
    )
    return AcyclicCategory.from_poset(p)


def interval_with_id(mid):
    return AcyclicCategory((0, 1), (mid,), {mid: 0}, {mid: 1}, {}, {0: 0, 1: 1})


def terminal_cat():
    return AcyclicCategory(("pt",), (), {}, {}, {}, {"pt": 0})


class TestValidate:
    def test_poset_as_category(self):
        assert validate_category(chain_cat(2)) == []

    def test_parallel_morphisms_allowed(self):
        assert validate_category(circle_minimal().cat) == []

    def test_cached_diagnostics_survive_caller_mutation(self):
        c = AcyclicCategory(("x",), ("f",), {"f": "x"}, {"f": "x"}, {})
        first = validate_category(c)
        expected = list(first)
        assert expected and validate_category(c) is not first
        first.clear()
        assert validate_category(c) == expected
        good = chain_cat(2)
        validate_category(good).append("not a problem")
        assert validate_category(good) == []
        x = punctured_torus()
        assert validate_total_normality(x) == validate_total_normality(x) == []
        assert validate_category(x.cat) == []

    def test_two_way_homs_rejected(self):
        c = AcyclicCategory(
            ("x", "y"),
            ("f", "g"),
            {"f": "x", "g": "y"},
            {"f": "y", "g": "x"},
            {("g", "f"): "f", ("f", "g"): "g"},
        )
        assert any("acyclicity" in m for m in validate_category(c))

    def test_self_morphism_rejected(self):
        c = AcyclicCategory(("x",), ("f",), {"f": "x"}, {"f": "x"}, {})
        assert any("identity" in m for m in validate_category(c))

    def test_missing_composition_reported(self):
        c = AcyclicCategory(
            ("x", "y", "z"),
            ("f", "g", "gf"),
            {"f": "x", "g": "y", "gf": "x"},
            {"f": "y", "g": "z", "gf": "z"},
            {},
        )
        assert any("missing composition" in m for m in validate_category(c))

    def test_associativity_checked(self):
        # w -> x -> y -> z with two parallel w->z composites misassigned
        src = {"f": "w", "g": "x", "h": "y", "gf": "w", "hg": "x", "p": "w", "q": "w"}
        dst = {"f": "x", "g": "y", "h": "z", "gf": "y", "hg": "z", "p": "z", "q": "z"}
        compose = {
            ("g", "f"): "gf",
            ("h", "g"): "hg",
            ("h", "gf"): "p",
            ("hg", "f"): "q",  # should equal p
        }
        c = AcyclicCategory(
            ("w", "x", "y", "z"), tuple(src), src, dst, compose
        )
        assert any("associativity" in m for m in validate_category(c))


class TestUnderlyingPoset:
    def test_circle_is_chain(self):
        p = underlying_poset(circle_minimal().cat)
        assert validate_poset(p) == []
        assert len(p.elements) == 2 and len(p.covers) == 1

    def test_poset_roundtrip(self):
        p = Poset.from_relation(
            range(4), [(0, 2), (1, 2), (2, 3)], {0: 0, 1: 0, 2: 1, 3: 2}
        )
        q = underlying_poset(AcyclicCategory.from_poset(p))
        assert set(q.covers) == set(p.covers)

    def test_punctured_torus_shape(self):
        p = underlying_poset(punctured_torus().cat)
        minima = [e for e in p.elements if not p.down_set(e)]
        maxima = [e for e in p.elements if all(not p.less(e, f) for f in p.elements)]
        assert len(minima) == 2 and len(maxima) == 1


class TestNerve:
    def test_circle(self):
        assert f_vector(nondegenerate_nerve(circle_minimal().cat)) == (2, 2)

    def test_punctured_torus(self):
        k = nondegenerate_nerve(punctured_torus().cat)
        assert f_vector(k) == (3, 4)

    def test_one_object(self):
        assert f_vector(nondegenerate_nerve(terminal_cat())) == (1,)

    def test_dd_identities_hold(self):
        for cat in (
            circle_minimal().cat,
            punctured_torus().cat,
            simplex(2).cat,
            product_category(circle_minimal().cat, circle_minimal().cat),
        ):
            assert validate_delta(nondegenerate_nerve(cat)) == []


class TestSdCategory:
    def test_interval(self):
        p = sd_category(chain_cat(1))
        assert len(p.elements) == 3
        assert len(p.covers) == 2

    def test_minimal_circle(self):
        p = sd_category(circle_minimal().cat)
        assert validate_poset(p) == []
        assert len(p.elements) == 4
        # each object-chain sits below both morphism-chains
        assert len(p.covers) == 4
        assert sorted(p.grades.values()) == [0, 0, 1, 1]

    def test_matches_barycentric_subdivision_of_nerve(self):
        # Sd of the nerve computed independently, as the order complex of
        # the nerve's own face poset
        from stratakit.delta import face_poset

        for cat in (punctured_torus().cat, circle_minimal().cat, simplex(2).cat):
            via_category = f_vector(order_complex(sd_category(cat)))
            via_complex = f_vector(
                order_complex(face_poset(nondegenerate_nerve(cat)))
            )
            assert via_category == via_complex
        assert f_vector(order_complex(sd_category(punctured_torus().cat))) == (
            7,
            8,
        )

    def test_grading_strict_along_covers(self):
        p = sd_category(simplex(2).cat)
        for lo, hi in p.covers:
            assert p.grades[hi] == p.grades[lo] + 1

    @pytest.mark.parametrize("name", sorted(CSS_FIXTURES))
    def test_chain_has_every_proper_subchain_below(self, name):
        # an n-chain has n + 1 distinct objects, and each proper nonempty
        # subset of them spans exactly one chain below it
        p = sd_category(CSS_FIXTURES[name]().cat)
        for e in p.elements:
            n = p.grades[e]
            assert len(p.down_set(e)) == 2 ** (n + 1) - 2


class TestStars:
    def test_upper_link_of_middle_element(self):
        assert f_vector(upper_link(chain_cat(2), 1)) == (1,)

    def test_upper_link_of_circle_vertex_is_sphere(self):
        assert f_vector(upper_link(circle_minimal().cat, "v")) == (2,)

    def test_star_of_maximal_object_is_point(self):
        assert f_vector(upper_star(circle_minimal().cat, "e")) == (1,)

    def test_unknown_object(self):
        with pytest.raises(KeyError):
            upper_star(circle_minimal().cat, "nope")

    def test_cone_identity(self):
        for cat in (simplex(2).cat, circle_minimal().cat, punctured_torus().cat):
            for x in cat.objects:
                st = f_vector(upper_star(cat, x))
                lk = f_vector(upper_link(cat, x))

                def lk_at(k):
                    if k == -1:
                        return 1
                    return lk[k] if 0 <= k < len(lk) else 0

                assert all(
                    st[k] == lk_at(k) + lk_at(k - 1) for k in range(len(st))
                )

    def test_lower_star_cone_identity(self):
        cat = simplex(2).cat
        for x in cat.objects:
            st = f_vector(lower_star(cat, x))
            lk = f_vector(lower_link(cat, x))

            def lk_at(k):
                if k == -1:
                    return 1
                return lk[k] if 0 <= k < len(lk) else 0

            assert all(st[k] == lk_at(k) + lk_at(k - 1) for k in range(len(st)))


class TestProductCategory:
    def test_torus_homs(self):
        c = circle_minimal().cat
        t = product_category(c, c)
        assert len(t.objects) == 4
        assert len(t.hom(("v", "v"), ("e", "e"))) == 4

    def test_terminal_is_unit(self):
        c = circle_minimal().cat
        p = product_category(c, terminal_cat())
        assert categories_isomorphic(p, c)

    def test_nerve_euler_multiplies(self):
        c = circle_minimal().cat
        t = product_category(c, c)
        chi_c = euler_characteristic(nondegenerate_nerve(c))
        assert chi_c == 0
        assert euler_characteristic(nondegenerate_nerve(t)) == chi_c * chi_c

    def test_underlying_poset_commutes(self):
        from stratakit.poset import are_isomorphic, product as poset_product

        c = circle_minimal().cat
        lhs = underlying_poset(product_category(c, c))
        rhs = poset_product(underlying_poset(c), underlying_poset(c))
        assert are_isomorphic(lhs, rhs)

    def test_morphism_id_equal_to_identity_tag(self):
        # "1" is also the tag of derived identity components; identities
        # must be told by their endpoints, not their ids
        i = interval_with_id("1")
        cube = product_category(product_category(i, i), i)
        assert validate_category(cube) == []
        assert (len(cube.morphisms), len(cube.compose)) == (19, 18)
        expected = ((1, 0, 0, 0), ((),) * 4)
        h = homology(chain_complex(nondegenerate_nerve(cube)))
        assert (h.betti, h.torsion) == expected
        x = make_css(i)
        cube_css = product_css(product_css(x, x), x)
        assert cube_css.cat == cube
        h = homology(chain_complex(sd(cube_css)))
        assert (h.betti, h.torsion) == expected


class TestGrothendieck:
    def test_constant_point_functor_is_identity(self):
        c = simplex(1).cat
        point = Poset((0,), (), {0: 0})
        fibers = {x: point for x in c.objects}
        maps = {m: {0: 0} for m in c.morphisms}
        # grades of the construction come from the (trivially graded)
        # fibers, so compare the category structure only
        assert categories_isomorphic(
            grothendieck(c, fibers, maps), c, match_grades=False
        )

    def test_base_morphism_id_starting_with_identity_tag(self):
        i = interval_with_id("1")
        c = product_category(i, i)  # has mids ("1", ("1", x))
        point = Poset((0,), (), {0: 0})
        fibers = {x: point for x in c.objects}
        maps = {m: {0: 0} for m in c.morphisms}
        assert categories_isomorphic(
            grothendieck(c, fibers, maps), c, match_grades=False
        )

    def test_terminal_base_gives_fiber(self):
        p = Poset.from_relation(range(3), [(0, 2), (1, 2)], {0: 0, 1: 0, 2: 1})
        gr = grothendieck(terminal_cat(), {"pt": p}, {})
        assert categories_isomorphic(gr, AcyclicCategory.from_poset(p))

    def test_non_functorial_rejected(self):
        c = chain_cat(2)
        two = Poset((0, 1), ((0, 1),), {0: 0, 1: 1})
        fibers = {x: two for x in c.objects}
        maps = {
            (0, 1): {0: 0, 1: 1},
            (1, 2): {0: 0, 1: 1},
            (0, 2): {0: 1, 1: 1},  # disagrees with the composite
        }
        with pytest.raises(ValueError, match="functoriality"):
            grothendieck(c, fibers, maps)

    def test_non_monotone_rejected(self):
        c = chain_cat(1)
        two = Poset((0, 1), ((0, 1),), {0: 0, 1: 1})
        fibers = {0: two, 1: opposite_grades_poset()}
        maps = {(0, 1): {0: 1, 1: 0}}
        with pytest.raises(ValueError, match="monotone"):
            grothendieck(c, fibers, maps)


def opposite_grades_poset():
    return Poset((0, 1), ((0, 1),), {0: 0, 1: 1})


class TestQuotient:
    def test_trivial_group(self):
        c = circle_minimal().cat
        action = GroupActionOnCategory(c, ())
        q = quotient_by_free_action(c, action)
        assert q.objects == c.objects and q.morphisms == c.morphisms

    def test_swap_two_isolated_objects(self):
        c = AcyclicCategory(("x", "y"), (), {}, {}, {}, {"x": 0, "y": 0})
        action = GroupActionOnCategory(c, (({"x": "y", "y": "x"}, {}),))
        q = quotient_by_free_action(c, action)
        assert len(q.objects) == 1

    def test_fixed_object_rejected(self):
        c = AcyclicCategory(
            ("x", "y", "z"), (), {}, {}, {}, {"x": 0, "y": 0, "z": 0}
        )
        action = GroupActionOnCategory(
            c, (({"x": "y", "y": "x", "z": "z"}, {}),)
        )
        with pytest.raises(ValueError, match="not free"):
            quotient_by_free_action(c, action)

    def test_euler_divides(self):
        from stratakit.graphconf import conf_category, loop_graph, sigma_action

        css = conf_category(loop_graph(), 2)
        action = sigma_action(css, 2)
        q = quotient_by_free_action(css.cat, action)
        assert len(q.objects) == 2 and len(q.morphisms) == 2
        chi_total = euler_characteristic(nondegenerate_nerve(css.cat))
        chi_orbit = euler_characteristic(nondegenerate_nerve(q))
        assert chi_total == 2 * chi_orbit
        assert f_vector(nondegenerate_nerve(q)) == (2, 2)

    def test_generator_breaking_endpoints_is_reported(self):
        from stratakit.graphconf import conf_category, cycle_graph, sigma_action

        css = conf_category(cycle_graph(3), 2)
        c = css.cat
        omap, mmap = sigma_action(css, 2).generators[0]
        f = c.morphisms[0]
        g = next(m for m in c.morphisms if c.src[m] != c.src[f])
        swapped = dict(mmap)
        swapped[f], swapped[g] = mmap[g], mmap[f]
        problems = GroupActionOnCategory(c, ((omap, swapped),)).validate()
        assert problems
        assert all("does not commute with src/dst" in p for p in problems)
        with pytest.raises(ValueError, match="does not commute"):
            quotient_by_free_action(c, GroupActionOnCategory(c, ((omap, swapped),)))


def test_opposite_category_involution():
    c = punctured_torus().cat
    back = opposite_category(opposite_category(c))
    assert back.src == c.src and back.dst == c.dst
    assert back.compose == c.compose
