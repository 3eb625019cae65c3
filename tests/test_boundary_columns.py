"""Boundary columns built on the first read.

``chain_complex`` certifies d . d = 0 when it is called, but each map it
returns holds only the face table and the signs until it is read. Its
matrices are compared with an in-test copy of the builder that made every
column dict at construction: whichever of ``==``, ``len``, iteration,
``repr``, ``.columns`` or ``[]`` reads a map first, and then all of them.
Inputs are nerves and order complexes of fixtures, products, duals and
configuration spaces, and random one-vertex tables with repeated faces.
A table whose boundary does not square to zero still raises from
``chain_complex`` itself. One validation on a fresh face category builds
column dicts only for the chain complexes whose homology its memo misses.
"""

import functools
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratakit.css as css
from stratakit.category import AcyclicCategory, underlying_poset
from stratakit.css import (
    CombinatorialCSS,
    dual,
    link_poset,
    make_css,
    product_css,
    sd,
    validate_total_normality,
)
from stratakit.delta import DeltaComplex, _identity_failures, f_vector
from stratakit.fixtures import CSS_FIXTURES, rp2
from stratakit.graphconf import (
    conf_category,
    cycle_graph,
    k5_graph,
    loop_graph,
    y_graph,
)
from stratakit.homology import chain_complex, homology
from stratakit.poset import order_complex

# the package binds the name homology to the function
hom = importlib.import_module("stratakit.homology")


# --- the builder as it was: every column dict made at construction --------


def column_before(faces, signs):
    col = {}
    for f, s in zip(faces, signs):
        v = col.get(f, 0) + s
        if v:
            col[f] = v
        else:
            del col[f]
    return col


class ColumnsBefore:
    def __init__(self, columns):
        self.columns = columns
        self.nnz = sum(map(len, columns))

    def items(self):
        return [((i, j), v) for j, col in enumerate(self.columns) for i, v in col.items()]

    def __repr__(self):
        return repr(dict(self.items()))


def chain_complex_before(k):
    mats = []
    prev = []
    for n in range(1, k.dim() + 1):
        signs = [(-1) ** i for i in range(n + 1)]
        faces = k.faces[n - 1]
        if _identity_failures(k, n) == []:
            cols = [dict(zip(row, signs)) for row in faces]
            for c, col in enumerate(cols):
                if len(col) <= n:
                    cols[c] = column_before(faces[c], signs)
        else:
            cols = []
            for c in range(k.size(n)):
                col = column_before(faces[c], signs)
                if n > 1:
                    acc = {}
                    for f, v in col.items():
                        for r, w in prev[f].items():
                            acc[r] = acc.get(r, 0) + v * w
                    if any(acc.values()):
                        raise ValueError(
                            f"boundary squared is nonzero in dimension {n}"
                        )
                cols.append(col)
        mats.append(ColumnsBefore(cols))
        prev = cols
    return f_vector(k), mats


# --- inputs ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fixture(name):
    return CSS_FIXTURES[name]()


SPACES = {f"fixture {n}": functools.partial(fixture, n) for n in CSS_FIXTURES}
SPACES.update(
    {
        "product rp2 x circle": lambda: product_css(
            fixture("rp2"), fixture("circle-minimal")
        ),
        "product torus x simplex-1": lambda: product_css(
            fixture("torus"), fixture("simplex-1")
        ),
        "dual rp2": lambda: dual(fixture("rp2")),
        "dual torus": lambda: dual(fixture("torus")),
        "conf loop 3": lambda: conf_category(loop_graph(), 3),
        "conf y 2": lambda: conf_category(y_graph(), 2),
        "conf cycle3 2": lambda: conf_category(cycle_graph(3), 2),
    }
)


@functools.lru_cache(maxsize=None)
def complexes(name):
    """sd, the order complex of the underlying poset, and every link
    order complex of one space."""
    x = SPACES[name]()
    out = [sd(x), order_complex(underlying_poset(x.cat))]
    out += [order_complex(link_poset(x, cell)) for cell in x.cells()]
    return tuple(out)


@st.composite
def one_vertex_tables(draw):
    """A 2-dimensional Delta complex on one vertex: every edge is a loop
    and any triple of edges is a 2-cell, so the identities hold and faces
    repeat."""
    edges = draw(st.integers(1, 4))
    triangles = draw(
        st.lists(st.tuples(*[st.integers(0, edges - 1)] * 3), max_size=8)
    )
    return DeltaComplex(
        ((0,), tuple(range(edges)), tuple(range(len(triangles)))),
        (((0, 0),) * edges, tuple(triangles)),
    )


READS = {
    "==": lambda new, old: new == dict(old.items()),
    "len": lambda new, old: len(new) == old.nnz,
    "iter": lambda new, old: list(new) == [key for key, _ in old.items()],
    "repr": lambda new, old: repr(new) == repr(old),
    "columns": lambda new, old: new.columns == old.columns,
    "[]": lambda new, old: all(new[key] == v for key, v in old.items()),
}


def assert_as_before(k, first):
    """chain_complex(k) against the copy, with ``first`` the first read of
    every map, then every other read."""
    shape, before = chain_complex_before(k)
    cc = chain_complex(k)
    assert cc.shape == shape
    assert len(cc.boundaries) == len(before)
    for new, old in zip(cc.boundaries, before):
        assert isinstance(new, hom._Columns)
        assert READS[first](new, old)
        for name, read in READS.items():
            assert read(new, old), name
    assert homology(cc) == homology(hom.ChainComplex(shape, tuple(
        dict(m.items()) for m in before
    )))


class TestMatricesAsBefore:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(SPACES)), st.sampled_from(sorted(READS)), st.data())
    def test_nerves_and_order_complexes(self, name, first, data):
        ks = complexes(name)
        k = ks[data.draw(st.integers(0, len(ks) - 1))]
        assert_as_before(k, first)

    @settings(max_examples=150, deadline=None)
    @given(one_vertex_tables(), st.sampled_from(sorted(READS)))
    def test_tables_with_repeated_faces(self, k, first):
        assert_as_before(k, first)

    @pytest.mark.parametrize("first", sorted(READS))
    def test_every_map_of_rp2_squared(self, first):
        k = sd(product_css(rp2(), rp2()))
        assert_as_before(k, first)

    def test_repeated_faces_cancel(self):
        # the dunce hat: one loop e and the 2-cell (e, e, e), d_2 = e - e + e
        k = DeltaComplex(((0,), (0,), (0,)), (((0, 0),), ((0, 0, 0),)))
        cc = chain_complex(k)
        assert len(cc.boundary(1)) == 0 and cc.boundary(1).columns == [{}]
        assert dict(cc.boundary(2).items()) == {(0, 0): 1}
        assert homology(cc).betti == (1, 0, 0)

    def test_a_broken_identity_raises_at_construction(self):
        # d(T) = 2a - b and d(2a - b) = 2v1 - v0 - v2 != 0
        k = DeltaComplex(
            ((0, 1, 2), ("a", "b", "c"), ("T",)),
            (((1, 0), (2, 0), (2, 1)), ((0, 1, 0),)),
        )
        with pytest.raises(ValueError, match="boundary squared is nonzero"):
            chain_complex(k)
        with pytest.raises(ValueError, match="boundary squared is nonzero"):
            chain_complex_before(k)

    def test_nothing_is_built_before_a_read(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            hom._Columns, "_build", lambda self: built.append(self)
        )
        cc = chain_complex(sd(fixture("torus")))
        assert cc.shape == f_vector(sd(fixture("torus")))
        assert built == []


def fresh(c):
    """The same category with empty caches."""
    return AcyclicCategory(c.objects, c.morphisms, c.src, c.dst, c.compose, c.grades)


class TestColumnsBuiltOnlyForMisses:
    @pytest.mark.parametrize(
        "make",
        [lambda: product_css(rp2(), rp2()), lambda: conf_category(k5_graph(), 2)],
    )
    def test_each_call(self, monkeypatch, make):
        x = make()
        x = CombinatorialCSS(fresh(x.cat), x.closed)
        made, missed, built = [], [], []
        build = hom._Columns._build

        def chain_complex_kept(kom):
            cc = chain_complex(kom)
            made.append(cc)
            return cc

        def homology_kept(cc, *args):
            missed.append(cc)
            return homology(cc, *args)

        def build_kept(self):
            built.append(self)
            build(self)

        def built_only_for_misses():
            assert len(built) == len({id(m) for m in built})
            assert {id(m) for m in built} == {
                id(m) for cc in missed for m in cc.boundaries
            }
            n = len(missed)
            del made[:], missed[:], built[:]
            return n

        monkeypatch.setattr(css, "chain_complex", chain_complex_kept)
        monkeypatch.setattr(css, "homology", homology_kept)
        monkeypatch.setattr(hom._Columns, "_build", build_kept)
        assert validate_total_normality(x) == []
        assert 0 < len(missed) < len(made)
        assert built_only_for_misses()
        # a repeat misses nothing, so it builds nothing
        assert validate_total_normality(x) == []
        assert made
        assert built_only_for_misses() == 0
        # the flag pass also tests the links of cells that are not closed
        assert make_css(x.cat).closed == x.closed
        built_only_for_misses()
        assert make_css(x.cat).closed == x.closed
        assert built_only_for_misses() == 0
