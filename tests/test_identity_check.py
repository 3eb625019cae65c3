"""One check of the simplicial identities, owned by ``delta.py``.

``validate_delta`` and ``chain_complex`` both call
``delta._identity_failures``, which compares d_i d_j = d_{j-1} d_i on the
transposed face tables. Each is compared with a copy of the code it
replaced: ``validate_delta`` with its per-cell loop, ``chain_complex`` with
the version that kept its own copy of the check. Inputs are nerves and
order complexes of fixtures, products and configuration spaces, and copies
of them with swapped faces, an out-of-range index, a short row, a wrong
table length or repeated faces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit.css import product_css, sd
from stratakit.delta import DeltaComplex, f_vector, face_poset, validate_delta
from stratakit.fixtures import CSS_FIXTURES, circle_minimal, rp2, simplex, y_space
from stratakit.graphconf import conf_category, graph_fixture, unordered_conf
from stratakit.homology import ChainComplex, _column, chain_complex
from stratakit.poset import order_complex


def validate_delta_per_cell(k):
    """``validate_delta`` with its own loop over every cell and identity."""
    problems = []
    for n in range(1, k.dim() + 1):
        if len(k.faces[n - 1]) != k.size(n):
            problems.append(f"dimension {n}: face table size mismatch")
            continue
        for c, row in enumerate(k.faces[n - 1]):
            if len(row) != n + 1:
                problems.append(f"{n}-cell {c}: expected {n + 1} faces")
                continue
            for i, f in enumerate(row):
                if not 0 <= f < k.size(n - 1):
                    problems.append(f"{n}-cell {c}: face d_{i} out of range")
    if problems:
        return problems
    for n in range(2, k.dim() + 1):
        for c in range(k.size(n)):
            for j in range(1, n + 1):
                for i in range(j):
                    lhs = k.face(n - 1, k.face(n, c, j), i)
                    rhs = k.face(n - 1, k.face(n, c, i), j - 1)
                    if lhs != rhs:
                        problems.append(
                            f"{n}-cell {c}: d_{i} d_{j} != d_{j - 1} d_{i}"
                        )
    return problems


def face_identities_hold(k, n):
    """The identity check ``homology.py`` kept for ``chain_complex``."""
    faces = k.faces[n - 1]
    if len(faces) != k.size(n):
        return False
    if n == 1 or not faces:
        return True
    lower = k.faces[n - 2]
    if len(lower) != k.size(n - 1):
        return False
    d = list(zip(*faces))
    low = list(zip(*lower))
    try:
        for j in range(1, n + 1):
            for i in range(j):
                if list(map(low[i].__getitem__, d[j])) != list(
                    map(low[j - 1].__getitem__, d[i])
                ):
                    return False
    except (IndexError, TypeError):
        return False
    return True


def chain_complex_own_check(k):
    """``chain_complex`` with its own copy of the identity check; the
    matrices are plain dicts in the same order as its columns."""
    mats = []
    prev = []
    for n in range(1, k.dim() + 1):
        signs = [(-1) ** i for i in range(n + 1)]
        faces = k.faces[n - 1]
        if face_identities_hold(k, n):
            cols = [dict(zip(row, signs)) for row in faces]
            for c, col in enumerate(cols):
                if len(col) <= n:
                    cols[c] = _column(faces[c], signs)
        else:
            cols = []
            for c in range(k.size(n)):
                col = _column(faces[c], signs)
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
        mats.append({(i, j): v for j, col in enumerate(cols) for i, v in col.items()})
        prev = cols
    return ChainComplex(f_vector(k), tuple(mats))


def outcome(build, k):
    """The value built, or the type and message of what was raised."""
    try:
        return build(k), None
    except Exception as e:  # the same complexes must fail the same way
        return None, (type(e).__name__, str(e))


def base_complexes():
    out = [sd(CSS_FIXTURES[name]()) for name in sorted(CSS_FIXTURES)]
    out += [
        order_complex(face_poset(sd(x)))
        for x in (simplex(2), simplex(3), rp2(), circle_minimal())
    ]
    out += [
        sd(product_css(circle_minimal(), y_space())),
        sd(product_css(rp2(), circle_minimal())),
        sd(conf_category(graph_fixture("y"), 2)),
        sd(conf_category(graph_fixture("loop"), 2)),
        sd(unordered_conf(graph_fixture("y"), 2)),
    ]
    return out


BASE = base_complexes()


@st.composite
def perturbed_complexes(draw):
    """A base complex with up to three edits of its face tables."""
    k = draw(st.sampled_from(BASE))
    faces = [[list(row) for row in table] for table in k.faces]
    for _ in range(draw(st.integers(0, 3)) if faces else 0):
        n = draw(st.integers(1, len(faces)))
        table = faces[n - 1]
        edit = draw(st.sampled_from(["swap", "range", "short", "length", "repeat"]))
        if edit == "length":
            if table and draw(st.booleans()):
                del table[draw(st.integers(0, len(table) - 1))]
            else:
                table.append([0] * (n + 1))
            continue
        if not table:
            continue
        row = table[draw(st.integers(0, len(table) - 1))]
        if not row:
            continue
        i = draw(st.integers(0, len(row) - 1))
        j = draw(st.integers(0, len(row) - 1))
        if edit == "swap":
            row[i], row[j] = row[j], row[i]
        elif edit == "range":
            row[i] = draw(st.sampled_from([k.size(n - 1), k.size(n - 1) + 2, -1]))
        elif edit == "short":
            row.pop()
        else:
            row[i] = row[j]
    return DeltaComplex(k.cells, tuple(tuple(map(tuple, t)) for t in faces))


def test_base_complexes_are_valid():
    assert len(BASE) > 15
    assert max(k.dim() for k in BASE) == 3
    for k in BASE:
        assert validate_delta(k) == validate_delta_per_cell(k) == []


@settings(max_examples=400, deadline=None)
@given(perturbed_complexes())
def test_validate_delta_as_the_per_cell_loop(k):
    assert validate_delta(k) == validate_delta_per_cell(k)


@settings(max_examples=400, deadline=None)
@given(perturbed_complexes())
def test_chain_complex_as_with_its_own_check(k):
    cc, err = outcome(chain_complex, k)
    ref, ref_err = outcome(chain_complex_own_check, k)
    assert err == ref_err
    if err is None:
        assert cc.shape == ref.shape
        assert [list(m.items()) for m in cc.boundaries] == [
            list(m.items()) for m in ref.boundaries
        ]


def test_failures_in_cell_then_identity_order():
    # triangles on the vertices 0, 1, 2: u has its faces in order, t has
    # d_0 and d_1 swapped and v has d_1 and d_2 swapped; d_0 d_2 = d_1 d_0
    # fails on both, so the failures of one identity are not adjacent
    k = DeltaComplex(
        ((0, 1, 2), ("01", "02", "12"), ("t", "u", "v")),
        (((1, 0), (2, 0), (2, 1)), ((1, 2, 0), (2, 1, 0), (2, 0, 1))),
    )
    expected = [
        "2-cell 0: d_0 d_2 != d_1 d_0",
        "2-cell 0: d_1 d_2 != d_1 d_1",
        "2-cell 2: d_0 d_1 != d_0 d_0",
        "2-cell 2: d_0 d_2 != d_1 d_0",
    ]
    assert validate_delta(k) == validate_delta_per_cell(k) == expected
