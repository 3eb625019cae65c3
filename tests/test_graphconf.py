from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratakit.graphconf as graphconf

from stratakit.category import categories_isomorphic
from stratakit.css import quotient_css, sd, validate_total_normality
from stratakit.delta import components, euler_characteristic, f_vector
from stratakit.fixtures import circle_minimal
from stratakit.graphconf import (
    Graph,
    abrams_complex,
    abrams_conditions,
    conf_category,
    edge_graph,
    graph_to_css,
    k5_graph,
    loop_graph,
    sigma_action,
    subdivide_graph,
    unordered_conf,
    validate_graph,
    y_graph,
)
from stratakit.homology import chain_complex, homology


def hom_of(css):
    return css.cat.hom


class TestGraphToCss:
    def test_loop_is_minimal_circle(self):
        css = graph_to_css(loop_graph())
        assert categories_isomorphic(css.cat, circle_minimal().cat)
        assert len(css.cat.hom(("v", "v"), ("e", "e"))) == 2

    def test_single_edge(self):
        css = graph_to_css(edge_graph())
        assert len(css.cat.hom(("v", "a"), ("e", "e"))) == 1
        assert len(css.cat.hom(("v", "b"), ("e", "e"))) == 1

    def test_y_graph(self):
        css = graph_to_css(y_graph())
        assert len(css.cells()) == 7
        assert len(css.cat.morphisms) == 6
        assert validate_total_normality(css) == []

    def test_bad_graph_rejected(self):
        g = Graph(("a",), (("e", ("a", "zzz")),))
        assert validate_graph(g)


class TestConfCategory:
    def test_edge(self):
        css = conf_category(edge_graph(), 2)
        assert Counter(css.dim(v) for v in css.cells()) == Counter(
            {0: 2, 1: 4, 2: 2}
        )
        dc = sd(css)
        assert components(dc) == 2
        assert f_vector(dc) == (8, 10, 4)
        assert homology(chain_complex(dc)).betti == (2, 0, 0)

    def test_loop(self):
        css = conf_category(loop_graph(), 2)
        assert len(css.cells()) == 4
        assert not any(css.dim(v) == 0 for v in css.cells())
        dc = sd(css)
        assert f_vector(dc) == (4, 4)
        assert homology(chain_complex(dc)).betti == (1, 1)

    def test_y(self):
        h = homology(chain_complex(sd(conf_category(y_graph(), 2))))
        assert h.betti == (1, 1, 0)
        assert not any(h.torsion)

    def test_total_normality_and_dim_raising(self):
        for g in (edge_graph(), loop_graph(), y_graph()):
            css = conf_category(g, 2)
            assert validate_total_normality(css) == []
            for m in css.cat.morphisms:
                cell, spec = m
                drop = css.dim(css.cat.dst[m]) - css.dim(css.cat.src[m])
                assert drop == len(spec)

    def test_conf_edge_composites_coincide(self):
        # both factorizations through the two half-open 1-cells give the
        # same corner morphism
        css = conf_category(edge_graph(), 2)
        squares = [v for v in css.cells() if css.dim(v) == 2]
        for sq in squares:
            corners = css.cat.hom(
                next(v for v in css.cells() if css.dim(v) == 0), sq
            )
            assert len(corners) <= 1

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            conf_category(edge_graph(), 0)


class TestSubdivideGraph:
    def test_edge_to_path(self):
        g = subdivide_graph(edge_graph(), 2)
        assert len(g.vertices) == 3 and len(g.edges) == 2

    def test_loop_to_triangle(self):
        g = subdivide_graph(loop_graph(), 3)
        assert len(g.vertices) == 3 and len(g.edges) == 3
        assert validate_graph(g) == []

    def test_y_three_fold(self):
        g = subdivide_graph(y_graph(), 3)
        assert len(g.vertices) == 10 and len(g.edges) == 9

    def test_homology_invariance(self):
        h1 = homology(chain_complex(sd(conf_category(loop_graph(), 2))))
        h2 = homology(
            chain_complex(sd(conf_category(subdivide_graph(loop_graph(), 3), 2)))
        )
        assert h1.trimmed() == h2.trimmed()


class TestAbrams:
    def test_k1_is_the_graph(self):
        css = abrams_complex(loop_graph(), 1, 3)
        h = homology(chain_complex(sd(css)))
        assert h.betti == (1, 1)

    def test_oracle_agreement_small(self):
        for g in (edge_graph(), loop_graph(), y_graph()):
            direct = homology(chain_complex(sd(conf_category(g, 2))))
            oracle = homology(chain_complex(sd(abrams_complex(g, 2, 3))))
            assert direct.trimmed() == oracle.trimmed()

    def test_all_cells_closed(self):
        css = abrams_complex(y_graph(), 2, 3)
        assert all(css.closed[v] for v in css.cells())

    def test_conditions_checker(self):
        assert abrams_conditions(loop_graph(), 2)  # girth 1 < 3
        assert abrams_conditions(k5_graph(), 2) == [  # essential paths too short
            f"path of length 1 between essential vertices {i} and {j} (need >= 3)"
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        assert abrams_conditions(subdivide_graph(loop_graph(), 3), 2) == []
        assert abrams_conditions(subdivide_graph(k5_graph(), 3), 2) == []
        assert abrams_conditions(subdivide_graph(k5_graph(), 3), 3)  # k=3 needs more


def girth_before(g):
    """``_girth`` as it was: a BFS per non-loop edge that pops the front
    of a list and scans every edge per dequeued vertex."""
    best = None
    for e, (a, b) in g.edges:
        if a == b:
            best = 1 if best is None else min(best, 1)
            continue
        dist = {a: 0}
        queue = [a]
        while queue:
            cur = queue.pop(0)
            for e2, (x, y) in g.edges:
                if e2 == e:
                    continue
                for u, w in ((x, y), (y, x)):
                    if u == cur and w not in dist:
                        dist[w] = dist[cur] + 1
                        queue.append(w)
        if b in dist:
            cycle = dist[b] + 1
            best = cycle if best is None else min(best, cycle)
    return best


def girth_brute_force(g):
    """Size of a smallest set of edges that forms a cycle: connected, and
    every vertex it touches has degree 2 in it (a loop counts twice)."""
    for size in range(1, len(g.edges) + 1):
        for subset in combinations(g.edges, size):
            degree = Counter()
            parent = {}

            def find(v):
                while parent.setdefault(v, v) != v:
                    v = parent[v]
                return v

            for _, (a, b) in subset:
                degree[a] += 1
                degree[b] += 1
                parent[find(a)] = find(b)
            if set(degree.values()) == {2} and len({find(v) for v in degree}) == 1:
                return size
    return None


@st.composite
def multigraphs(draw):
    """Up to 6 vertices and 8 edges between random ends, loops and
    parallel edges included."""
    n = draw(st.integers(1, 6))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(ends, max_size=8))
    return Graph(tuple(range(n)), tuple((f"e{i}", ab) for i, ab in enumerate(pairs)))


def outcome(f, *args):
    """What f returns, or the type and arguments of what it raises."""
    try:
        return ("returned", f(*args))
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc).__name__, exc.args)


class TestGirth:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.integers(1, 4))
    def test_shortest_cycle_as_brute_force(self, g, k):
        adjacency = {v: [] for v in g.vertices}
        for e, (a, b) in g.edges:
            adjacency[a].append((e, b))
            adjacency[b].append((e, a))
        girth = graphconf._girth(g, adjacency)
        assert girth == girth_brute_force(g) == girth_before(g)
        got = outcome(abrams_conditions, g, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphconf, "_girth", lambda g, adjacency: girth_before(g))
            assert got == outcome(abrams_conditions, g, k)


class TestSigmaAction:
    def test_freeness(self):
        for g in (edge_graph(), loop_graph(), y_graph()):
            css = conf_category(g, 2)
            action = sigma_action(css, 2)
            assert action.validate() == []
            for omap, _ in action.elements():
                if any(omap[x] != x for x in css.cat.objects):
                    assert all(omap[x] != x for x in css.cat.objects)

    def test_unordered_loop(self):
        q = unordered_conf(loop_graph(), 2)
        dc = sd(q)
        assert f_vector(dc) == (2, 2)
        assert homology(chain_complex(dc)).betti == (1, 1)

    def test_euler_halving(self):
        for g in (edge_graph(), loop_graph(), y_graph()):
            ordered = euler_characteristic(sd(conf_category(g, 2)))
            unordered = euler_characteristic(sd(unordered_conf(g, 2)))
            assert ordered == 2 * unordered

    def test_images_are_stored_objects(self):
        # one instance per cell and per morphism id, so lookups keyed by
        # them hit by identity
        for g, k in ((y_graph(), 2), (k5_graph(), 2), (subdivide_graph(y_graph(), 1), 3)):
            css = conf_category(g, k)
            c = css.cat
            cells = {id(x) for x in c.objects}
            mids = {id(m) for m in c.morphisms}
            assert all(id(x) in cells for x in c.src.values())
            assert all(id(x) in cells for x in c.dst.values())
            assert all(id(m[0]) in cells for m in c.morphisms)
            assert all(id(gf) in mids for gf in c.compose.values())
            for omap, mmap in sigma_action(css, k).generators:
                assert all(id(x) in cells for x in omap.values())
                assert all(id(m) in mids for m in mmap.values())

    def test_three_points_freeness(self):
        css = conf_category(subdivide_graph(y_graph(), 2), 3)
        action = sigma_action(css, 3)
        assert action.validate() == []
        assert len(action.elements()) == 6
        q = quotient_css(css, action)
        assert 6 * euler_characteristic(sd(q)) == euler_characteristic(sd(css))
