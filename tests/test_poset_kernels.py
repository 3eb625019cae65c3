"""The sphere-test kernels of the poset layer against copies of the code
they replaced.

``order_complex`` finds each face by (index of the parent chain's face,
last element) and is compared with a copy of the construction that sorted
every layer and looked faces up by the deleted-entry chain.
``Poset.from_relation`` keeps the transitive closure it computes as the
cached ``_down``; it must equal the closure of the covers, and
``validate_poset`` must report what it reports on an uncached copy. Such a
poset is also marked valid as an order, so ``validate_poset`` checks only
its grades; it is compared with a copy of the function that checked
everything, on drawn grades that may be partial or not increase.
``from_relation`` closes through ``_closure``; it is compared with a
copy of the version that closed and reduced in place, on relations with
repeated ids, cycles and unknown ids.
``chain_layers`` is a copy of the chain lister the package used before
its chains came from the nerve kernel; other test modules take it as
their reference.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratakit.delta import DeltaComplex
from stratakit.poset import (
    Poset,
    _strict_down,
    order_complex,
    validate_poset,
)


def chain_layers(starts, after):
    """Chains beginning at ``starts``, grouped by length, shortest first:
    the chain lister the poset layer used before the nerve kernel.

    ``after[x]`` lists what may follow ``x`` in a chain; within a layer,
    chains keep the order of their prefixes, then of ``after``.
    """
    layers = []
    frontier = [(x,) for x in starts]
    while frontier:
        layers.append(frontier)
        frontier = [chain + (y,) for chain in frontier for y in after[chain[-1]]]
    return layers


def order_complex_by_sorting(p):
    """The construction order_complex used to run."""
    by_dim = [sorted(layer) for layer in chain_layers(p.elements, p._up)]
    cells = tuple(tuple(c) for c in by_dim)
    index = [{c: i for i, c in enumerate(layer)} for layer in by_dim]
    faces = []
    for n in range(1, len(by_dim)):
        layer = []
        for chain in by_dim[n]:
            layer.append(
                tuple(index[n - 1][chain[:i] + chain[i + 1 :]] for i in range(n + 1))
            )
        faces.append(tuple(layer))
    return DeltaComplex(cells, tuple(faces))


@st.composite
def relations(draw, unique=True):
    """Element ids (non-contiguous, possibly negative, in drawn order) and a
    strict order on them: random, an antichain, a chain, or empty."""
    n = draw(st.integers(0, 7))
    ids = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=unique))
    shape = draw(st.sampled_from(["random", "antichain", "chain"]))
    if shape == "antichain":
        less = []
    elif shape == "chain":
        less = list(zip(ids, ids[1:]))
    else:
        pos = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        picks = draw(st.lists(pos, max_size=20)) if n else []
        less = [(ids[i], ids[j]) for i, j in picks if i < j]
    return ids, less


class TestOrderComplex:
    @settings(max_examples=300, deadline=None)
    @given(relations())
    def test_matches_sorting_construction(self, rel):
        p = Poset.from_relation(*rel)
        got = order_complex(p)
        want = order_complex_by_sorting(Poset(p.elements, p.covers))
        assert got.cells == want.cells
        assert got.faces == want.faces
        assert order_complex(Poset(p.elements, p.covers)) == got

    def test_empty_poset(self):
        assert order_complex(Poset((), ())) == DeltaComplex((), ())


class TestFromRelationClosure:
    @settings(max_examples=300, deadline=None)
    @given(relations())
    def test_cached_closure_is_that_of_the_covers(self, rel):
        p = Poset.from_relation(*rel)
        assert "_down" in p.__dict__
        assert p._down == _strict_down(p.elements, p.covers)
        assert list(p._down) == list(p.elements)

    @settings(max_examples=300, deadline=None)
    @given(relations(unique=False))
    def test_validate_reports_as_on_an_uncached_copy(self, rel):
        try:
            p = Poset.from_relation(*rel)
        except (KeyError, ValueError):
            assume(False)
        uncached = Poset(p.elements, p.covers, p.grades, p.labels)
        assert validate_poset(p) == validate_poset(uncached)

    def test_duplicate_ids_reported(self):
        p = Poset.from_relation([3, -1, 3, 5], [(-1, 5)])
        assert "_down" not in p.__dict__
        assert validate_poset(p) == ["duplicate element id 3"]


def validate_poset_checking_everything(p):
    """The validate_poset that checked the order on every poset."""
    problems = []
    seen = set()
    for e in p.elements:
        if e in seen:
            problems.append(f"duplicate element id {e}")
        seen.add(e)
    for lo, hi in p.covers:
        if lo not in seen or hi not in seen:
            problems.append(f"cover ({lo},{hi}) references unknown element")
            return problems
        if lo == hi:
            problems.append(f"reflexive cover ({lo},{hi})")
    try:
        down = p._down
    except ValueError:
        problems.append("antisymmetry violation: cover relation contains a cycle")
        return problems
    for lo, hi in p.covers:
        if any(lo in down[mid] for mid in down[hi]):
            problems.append(f"cover ({lo},{hi}) is a transitive shortcut")
    if p.grades:
        missing = [e for e in p.elements if e not in p.grades]
        if missing:
            problems.append(f"partial grading: elements {sorted(missing)} ungraded")
        else:
            for lo, hi in p.covers:
                if p.grades[lo] >= p.grades[hi]:
                    problems.append(
                        f"grade does not increase along cover ({lo},{hi})"
                    )
    return problems


@st.composite
def graded_relations(draw):
    """A relation with grades on a drawn subset of its elements: by height
    (valid), arbitrary (often not increasing along a cover), or none."""
    ids, less = draw(relations(unique=draw(st.booleans())))
    how = draw(st.sampled_from(["height", "arbitrary", "none"]))
    if how == "none":
        return ids, less, {}
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    else:
        keep = [True] * len(ids)
    if how == "height":
        try:
            down = _strict_down(set(ids), less)
        except ValueError:
            down = {e: () for e in ids}
        grade = {e: len(down[e]) for e in ids}
    else:
        grade = {e: draw(st.integers(-2, 3)) for e in ids}
    return ids, less, {e: grade[e] for e, k in zip(ids, keep) if k}


class TestValidOrderSkipsOrderChecks:
    @settings(max_examples=400, deadline=None)
    @given(graded_relations())
    def test_reports_as_the_full_check(self, rel):
        ids, less, grades = rel
        try:
            p = Poset.from_relation(ids, less, grades)
        except (KeyError, ValueError):
            assume(False)
        assert p.__dict__.get("_order_valid", False) == (len(set(ids)) == len(ids))
        want = validate_poset_checking_everything(
            Poset(p.elements, p.covers, p.grades, p.labels)
        )
        assert validate_poset(p) == want
        if want:
            with pytest.raises(ValueError) as raised:
                order_complex(p)
            assert str(raised.value) == "invalid poset: " + "; ".join(want)
        else:
            order_complex(p)

    def test_bad_grades_still_raise(self):
        p = Poset.from_relation([0, 1, 2], [(0, 1), (1, 2)], {0: 0, 1: 2, 2: 1})
        assert p.__dict__["_order_valid"]
        with pytest.raises(ValueError) as raised:
            order_complex(p)
        assert str(raised.value) == (
            "invalid poset: grade does not increase along cover (1,2)"
        )
        partial = Poset.from_relation([0, 1], [(0, 1)], {1: 1})
        assert validate_poset(partial) == ["partial grading: elements [0] ungraded"]

    def test_hand_built_posets_are_checked_in_full(self):
        shortcut = Poset((0, 1, 2), ((0, 1), (1, 2), (0, 2)))
        assert "_order_valid" not in shortcut.__dict__
        assert validate_poset(shortcut) == ["cover (0,2) is a transitive shortcut"]


# --- from_relation through _closure against the in-place version ----------------


def from_relation_in_place(elements, less, grades=None, labels=None):
    """``Poset.from_relation`` (on a relation, not a ``_Closed``) as it was
    before ``_closure``: closure and cover reduction in place, an empty
    relation on distinct elements as an antichain without a closure."""
    elems = tuple(elements)
    if not isinstance(less, (list, tuple)):
        less = list(less)
    if not less and len(set(elems)) == len(elems):
        down = dict.fromkeys(elems, frozenset())
        covers = ()
    else:
        closure = _strict_down(elems, less)
        found = []
        for hi in elems:
            below = closure[hi]
            if below:
                shadow = set().union(*map(closure.__getitem__, below))
                found.extend((lo, hi) for lo in below - shadow)
        covers = tuple(sorted(found, key=repr))
        down = None
        if len(closure) == len(elems):
            down = {e: frozenset(s) for e, s in closure.items()}
    p = Poset(
        elems,
        covers,
        dict(grades) if grades else {},
        dict(labels) if labels else {},
    )
    if down is not None:
        p.__dict__["_down"] = down
        p.__dict__["_order_valid"] = True
    return p


def poset_or_error(f, *args):
    """The poset f returns, all of it, dict orders included, or the type
    and arguments of what it raises."""
    try:
        p = f(*args)
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc).__name__, exc.args)
    down = p.__dict__.get("_down")
    return (
        "returned",
        p.elements,
        p.covers,
        tuple(p.grades.items()),
        tuple(p.labels.items()),
        None if down is None else tuple(down.items()),
        p.__dict__.get("_order_valid"),
    )


@st.composite
def any_relations(draw):
    """Ids, distinct or repeated, and pairs among them in any direction (so
    cycles and self-pairs), now and then naming an id that is not one;
    grades and labels or none, and the container the pairs come in."""
    ids = draw(st.lists(st.integers(-6, 6), max_size=7, unique=draw(st.booleans())))
    known = st.sampled_from(ids) if ids else st.nothing()
    name = st.one_of(known, st.integers(7, 9)) if draw(st.booleans()) else known
    less = draw(st.lists(st.tuples(name, name), max_size=12)) if ids else []
    if draw(st.booleans()):  # most draws: pairs up the drawn order only
        less = [(a, b) for a, b in less if a in ids and b in ids]
        less = [(a, b) for a, b in less if ids.index(a) < ids.index(b)]
    grades = {e: draw(st.integers(0, 3)) for e in ids} if draw(st.booleans()) else None
    labels = {e: f"v{e}" for e in ids} if draw(st.booleans()) else None
    container = draw(st.sampled_from([list, tuple, iter]))
    return ids, less, grades, labels, container


class TestFromRelationAsInPlace:
    @settings(max_examples=500, deadline=None)
    @given(any_relations())
    def test_equal_poset_or_error(self, drawn):
        ids, less, grades, labels, container = drawn
        got = poset_or_error(
            Poset.from_relation, container(ids), container(less), grades, labels
        )
        want = poset_or_error(
            from_relation_in_place, container(ids), container(less), grades, labels
        )
        assert got == want
