"""Rational hyperplane arrangements and their sign-vector stratifications.

A face of the level-1 stratification is a realizable sign vector in
{-1,0,+1}^k; realizability is decided by exact rational LP. The level-l
stratification of the l-fold thickening assigns each form a value in
S_l = {0, +-e_1, ..., +-e_l}: the sign and position of the last nonzero
evaluation. Its faces are computed combinatorially by combining one
affine level-1 face with l-1 independent central level-1 faces (the
constant term enters only at level 1, matching the complexification
convention), never by an LP in the thickened space.

Sign values are encoded as 0 or (sign, level); the pointwise order on
sign vectors is taken as the closure order, with a rational segment
spot-check available as a validator.

``SignVector.leq`` and the face posets test that order on bit masks.
Each label is first encoded as two ints over 2*order bits per form
(``_order_masks``): a value (s, l) is the bit 2(l-1) + (s < 0) of its
form, ``below`` sets the bit of each value and ``above`` also every bit
of the lower levels, and v <= w iff ``below(v) & ~above(w) == 0``, one
AND of ints per ordered pair of labels. The LP systems of one
enumeration append prebuilt rows: each form's row at -1, 0 and +1 is
built once per call (``_sign_rows``), with integral coefficients as ints,
which the LP then takes without scaling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .css import CombinatorialCSS, poset_to_css, salvetti_complex
from .delta import DeltaComplex
from .lp import _fraction, rational_rank, strict_feasibility
from .poset import Poset, _closure, order_complex

__all__ = [
    "Arrangement",
    "SignVector",
    "validate_arrangement",
    "faces_level1",
    "faces_higher",
    "complement_poset",
    "higher_salvetti",
    "salvetti_cellular",
    "symmetric_subdivision",
    "symmetric_collapse",
    "permute_central_levels",
    "euler_sum",
    "closure_order_spotcheck",
    "braid_arrangement",
]

Sign = int  # -1, 0, +1


@dataclass(frozen=True)
class Arrangement:
    """Affine forms l_i(x) = a_i . x + b_i with rational coefficients."""

    n: int
    forms: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    @classmethod
    def from_lists(cls, n: int, rows) -> "Arrangement":
        """The arrangement of the rows (a, b), each coefficient an int or a
        Fraction: any other value raises TypeError naming its form, and an
        invalid arrangement ValueError."""
        forms = tuple(
            (
                tuple(_fraction(v, f"form {i}") for v in a),
                _fraction(b, f"form {i}"),
            )
            for i, (a, b) in enumerate(rows)
        )
        arr = cls(n, forms)
        bad = validate_arrangement(arr)
        if bad:
            raise ValueError("; ".join(bad))
        return arr


def validate_arrangement(arr: Arrangement) -> list[str]:
    """The faults of the arrangement, each naming its form; empty iff
    valid. An ``Arrangement`` built directly, not by ``from_lists``, may
    hold a coefficient that is not an int or a Fraction; it is reported,
    and its form is not compared with the others."""
    problems = []
    seen: list[tuple[int, tuple]] = []
    for i, (a, b) in enumerate(arr.forms):
        if len(a) != arr.n:
            problems.append(f"form {i}: expected {arr.n} coefficients")
            continue
        inexact = [
            v for v in (*a, b) if type(v) is not int and not isinstance(v, Fraction)
        ]
        if inexact:
            v = inexact[0]
            problems.append(
                f"form {i}: {type(v).__name__} coefficient {v!r} is not an int "
                "or a Fraction"
            )
            continue
        if not any(a):
            problems.append(f"form {i}: zero linear part does not cut a hyperplane")
            continue
        lead = next(v for v in a if v)
        scaled = tuple(v / lead for v in list(a) + [b])
        for j, other in seen:
            if other == scaled:
                problems.append(
                    f"form {i} duplicates form {j} up to scaling"
                )
        seen.append((i, scaled))
    return problems


@dataclass(frozen=True)
class SignVector:
    """A map from the forms to S_l; values are 0 or (sign, level), a plain
    tuple with an int level, as ``_order_masks`` reads them."""

    values: tuple
    order: int

    def __post_init__(self):
        for v in self.values:
            if v == 0:
                continue
            if (
                type(v) is not tuple
                or len(v) != 2
                or v[0] not in (-1, 1)
                or type(v[1]) is not int
                or not 1 <= v[1] <= self.order
            ):
                raise ValueError(f"malformed sign value {v!r}")

    def leq(self, other: "SignVector") -> bool:
        """Pointwise order: 0 < +-e_1 < ... < +-e_l, +-e_j incomparable
        to -+e_j, tested on the bit masks of ``_order_masks``."""
        if self.order != other.order or len(self.values) != len(other.values):
            raise ValueError("sign vectors live over different data")
        (below, _), (_, not_above) = _order_masks(
            (self.values, other.values), self.order
        )
        return not below & not_above


def _sign_rows(arr: Arrangement, central: bool) -> list[tuple]:
    """The row table of a call: each form's (coeffs, rhs) row indexed by
    its sign, at 0 the equality a.x = rhs, at +1 the strict a.x > rhs and
    at -1 the strict -a.x > -rhs, rhs = -b (0 for a central system). Every
    sign system of the call appends these rows, never copies of them.
    An integral coefficient or rhs is a Python int, any other an equal
    Fraction, so the LP takes an all-int row as it is (``lp._scaled``)."""
    table = []
    for a, b in arr.forms:
        coeffs = [_plain(v) for v in a]
        rhs = 0 if central else _plain(-b)
        row = (coeffs, rhs)
        table.append((row, row, ([-v for v in coeffs], -rhs)))
    return table


def _plain(v: Fraction):
    """v as an int when it is integral, else v."""
    return v.numerator if v.denominator == 1 else v


def _sign_system(rows: list[tuple], signs):
    """The (equalities, stricts) putting form i at signs[i]: 0 on its
    hyperplane, +-1 strictly on that side, None unconstrained; rows is the
    table of ``_sign_rows``."""
    eqs = []
    stricts = []
    for s, row in zip(signs, rows):
        if s is None:
            continue
        (stricts if s else eqs).append(row[s])
    return eqs, stricts


def _level1_candidates(
    arr: Arrangement, central: bool
) -> list[tuple[tuple[Sign, ...], int]]:
    """Realizable sign vectors in {-1,0,1}^k with their dimensions."""
    k = len(arr.forms)
    rows = _sign_rows(arr, central)
    out = []
    for sigma in iproduct((-1, 0, 1), repeat=k):
        feas = strict_feasibility(*_sign_system(rows, sigma), arr.n)
        if not feas.feasible:
            continue
        zero_rows = [row[0][0] for s, row in zip(sigma, rows) if s == 0]
        dim = arr.n - rational_rank(zero_rows) if zero_rows else arr.n
        out.append((sigma, dim))
    return out


def _order_masks(labels, order: int) -> tuple[list[int], list[int]]:
    """Bit masks (below, not above) of each label, such that a <= b iff
    ``below[a] & not_above[b] == 0``. Form i owns the 2*order bits from
    2*order*i; a value (s, l) is the bit 2(l-1) + (s < 0) of its form,
    and a level-1 sign s is read as (s, 1). ``below`` holds the value's
    own bit, ``above`` that bit and both bits of every lower level: the
    values at or below it in the order of ``SignVector.leq``."""
    width = 2 * order
    below = []
    not_above = []
    for label in labels:
        lo = hi = 0
        for i, v in enumerate(label):
            if not v:
                continue
            s, level = v if type(v) is tuple else (v, 1)
            base = width * i + 2 * (level - 1)
            bit = 1 << (base + (s < 0))
            lo |= bit
            hi |= bit | ((1 << base) - (1 << (width * i)))
        below.append(lo)
        not_above.append(~hi)
    return below, not_above


def _mask_pairs(labels, order: int) -> list[tuple[int, int]]:
    """The pairs (a, b) of positions in ``labels`` with labels[a] <
    labels[b] pointwise, as by ``SignVector.leq``. Each label becomes two
    ints once (``_order_masks``), and the test of an ordered pair is
    ``below[a] & not_above[b]``: one AND of ints of 2*order*k bits, for
    each of the n(n-1) ordered pairs of n labels."""
    below, not_above = _order_masks(labels, order)
    return [
        (a, b)
        for a, lo in enumerate(below)
        for b, hi in enumerate(not_above)
        if not lo & hi and a != b
    ]


def _poset_from_faces(faces: dict, order: int) -> Poset:
    """faces: label -> dim, labels in S_order^k (plain signs at order 1);
    ordered pointwise (``_mask_pairs``)."""
    labels = sorted(faces, key=repr)
    return Poset.from_relation(
        range(len(labels)),
        _mask_pairs(labels, order),
        {i: faces[lab] for i, lab in enumerate(labels)},
        dict(enumerate(labels)),
    )


def _level_faces(arr: Arrangement, order: int):
    """The level-1 faces of each level as (sign vector, dim) pairs: the
    affine faces, then order - 1 times the one list of central faces."""
    if order < 1:
        raise ValueError("order must be >= 1")
    bad = validate_arrangement(arr)
    if bad:
        raise ValueError("; ".join(bad))
    affine = _level1_candidates(arr, central=False)
    central = _level1_candidates(arr, central=True) if order > 1 else []
    return [affine] + [central] * (order - 1)


def _symmetric_strata(levels):
    """Yield every stratum of the level-symmetric refinement once, as
    (label, dim), from the faces of each level (``_level_faces``): the
    label gives each form its signs level by level, the dimension is the
    sum over the levels. Every stratification of the arrangement is read
    from this one enumeration."""
    for parts in iproduct(*levels):
        yield tuple(zip(*(s for s, _ in parts))), sum(d for _, d in parts)


def _level1_covers(faces) -> dict:
    """Lower covers of each level-1 face, from (sign vector, dim) pairs:
    the order of the faces of one level (``_mask_pairs``), closed and
    reduced by ``poset._closure``."""
    signs = [s for s, _ in faces]
    covers: dict = {a: [] for a in signs}
    for lo, hi in _closure(range(len(signs)), _mask_pairs(signs, 1)).covers:
        covers[signs[hi]].append(signs[lo])
    return covers


def faces_level1(arr: Arrangement) -> Poset:
    """Face poset of the arrangement's own stratification of R^n.

    Labels are sign tuples in {-1,0,1}^k; grades are face dimensions.
    """
    return _poset_from_faces(dict(_level_faces(arr, 1)[0]), 1)


def faces_higher(arr: Arrangement, order: int) -> Poset:
    """Face poset of the level-`order` stratification of R^n (x) R^order.

    Its labels are the collapses of the symmetric labels; a stratum's
    dimension is the largest total dimension of a compatible tuple of
    level-1 faces, one per level.
    """
    faces: dict[tuple, int] = {}
    for symmetric, dim in _symmetric_strata(_level_faces(arr, order)):
        label = symmetric_collapse(symmetric)
        if faces.get(label, -1) < dim:
            faces[label] = dim
    return _poset_from_faces(faces, order)


def complement_poset(arr: Arrangement, order: int) -> Poset:
    """Subposet of the strata avoiding every thickened hyperplane.

    These strata form an up-set (a nonzero value stays nonzero above it),
    so every interval between two of them lies inside and the covers of
    the face poset with both ends kept generate the order: O(covers)
    instead of a test of every pair.
    """
    p = faces_higher(arr, order)
    keep = [e for e in p.elements if all(v != 0 for v in p.labels[e])]
    kept = set(keep)
    return Poset.from_relation(
        keep,
        [(a, b) for a, b in p.covers if a in kept and b in kept],
        {e: p.grades[e] for e in keep},
        {e: p.labels[e] for e in keep},
    )


def higher_salvetti(arr: Arrangement, order: int) -> DeltaComplex:
    """Order complex of the complement poset: the classifying space of
    the complement's face category (regular, so category = poset)."""
    return order_complex(complement_poset(arr, order))


def salvetti_cellular(arr: Arrangement, order: int) -> CombinatorialCSS:
    """The complement as a stratified space, coarsened by double duality.

    Output cells biject with complement strata; dimensions are chain
    heights under the dual."""
    return salvetti_complex(poset_to_css(complement_poset(arr, order)))


def symmetric_subdivision(arr: Arrangement, order: int) -> Poset:
    """Level-symmetric refinement by product sign vectors S_1^order.

    Labels are per-form tuples of level signs (level 1 affine, levels
    >= 2 central); the symmetric group on the central levels acts by
    permuting coordinates.

    The order is the product of the level-1 face orders, one factor per
    level, so it is generated by the pairs "one level's face replaced by
    one of its lower covers, the other levels fixed": O(strata x levels x
    covers) pairs, where a test of every ordered pair of strata took
    31.6M tests for braid(4) at order 2."""
    levels = _level_faces(arr, order)
    # level 0 is affine and every later level central: two cover tables
    lower_covers = [_level1_covers(faces) for faces in levels[:2]]
    faces = dict(_symmetric_strata(levels))
    labels = sorted(faces, key=repr)
    index = {lab: i for i, lab in enumerate(labels)}
    less = []
    for hi, label in enumerate(labels):
        for level in range(order):
            signs = tuple(v[level] for v in label)
            for lower in lower_covers[min(level, 1)][signs]:
                below = tuple(
                    v[:level] + (x,) + v[level + 1 :] for v, x in zip(label, lower)
                )
                less.append((index[below], hi))
    return Poset.from_relation(
        range(len(labels)),
        less,
        {i: faces[lab] for i, lab in enumerate(labels)},
        dict(enumerate(labels)),
    )


def symmetric_collapse(label: tuple) -> tuple:
    """The collapse c(eps_1,...,eps_l) = eps_m e_m, m the top nonzero
    level, applied formwise; maps symmetric labels onto level-l labels."""
    out = []
    for levels in label:
        m = len(levels)
        while m and not levels[m - 1]:
            m -= 1
        out.append((levels[m - 1], m) if m else 0)
    return tuple(out)


def permute_central_levels(label: tuple, perm: dict[int, int]) -> tuple:
    """Permute levels 2..l of a symmetric label; level 1 must stay put."""
    if any(p == 1 or q == 1 for p, q in perm.items()):
        raise ValueError("level 1 is affine and cannot be permuted")
    out = []
    for levels in label:
        arranged = list(levels)
        for src_level, dst_level in perm.items():
            arranged[dst_level - 1] = levels[src_level - 1]
        out.append(tuple(arranged))
    return tuple(out)


def euler_sum(p: Poset) -> int:
    """Compactly-supported Euler characteristic: sum of (-1)^dim over
    strata."""
    return sum((-1) ** p.grades[e] for e in p.elements)


def _witness(arr: Arrangement, order: int, label: tuple):
    """A rational point of R^n x ... x R^n realizing a level-`order`
    stratum, built from per-level witnesses."""
    affine, central = _sign_rows(arr, False), _sign_rows(arr, True)
    points = []
    for level in range(1, order + 1):
        signs = []
        for value in label:
            if value == 0 or level > value[1]:
                signs.append(0)
            elif level == value[1]:
                signs.append(value[0])
            else:
                signs.append(None)  # unconstrained below its own level
        rows = central if level > 1 else affine
        feas = strict_feasibility(*_sign_system(rows, signs), arr.n)
        if not feas.feasible:
            return None
        points.append(feas.witness)
    return points


def closure_order_spotcheck(
    arr: Arrangement, order: int, seed: int = 0, pairs: int = 25
) -> list[str]:
    """Validate that the pointwise order embeds in the closure order.

    For sampled comparable pairs s' < s, points on the segment from a
    witness of s' toward a witness of s must realize s for small rational
    parameters; evaluation is exact. Returns violations (empty = passed).
    """
    p = faces_higher(arr, order)
    rng = random.Random(seed)
    # sorted, so the sample depends on the poset and the seed only, not
    # on the order in which the down-sets were filled
    comparable = sorted(p.comparable_pairs())
    if not comparable:
        return []
    problems = []
    for a, b in rng.sample(comparable, min(pairs, len(comparable))):
        lo, hi = p.labels[a], p.labels[b]
        w_lo, w_hi = _witness(arr, order, lo), _witness(arr, order, hi)
        if w_lo is None or w_hi is None:
            problems.append(f"no witness for {lo!r} or {hi!r}")
            continue
        t = Fraction(1, 997)
        point = [
            tuple((1 - t) * u + t * v for u, v in zip(pl, ph))
            for pl, ph in zip(w_lo, w_hi)
        ]
        if _signs_at(arr, point) != hi:
            problems.append(
                f"segment from {lo!r} toward {hi!r} leaves the larger stratum"
            )
    return problems


def _signs_at(arr: Arrangement, points) -> tuple:
    """Level-l sign vector of a tuple of per-level points: the collapse of
    the signs at each level, the constant terms entering at level 1."""
    levels = []
    for level, x in enumerate(points, 1):
        values = (
            sum(ai * xi for ai, xi in zip(a, x)) + (b if level == 1 else 0)
            for a, b in arr.forms
        )
        levels.append(tuple((v > 0) - (v < 0) for v in values))
    return symmetric_collapse(tuple(zip(*levels)))


def braid_arrangement(k: int) -> Arrangement:
    """The braid arrangement A_{k-1} in R^k: hyperplanes x_i = x_j."""
    rows = []
    for i in range(k):
        for j in range(i + 1, k):
            a = [Fraction(0)] * k
            a[i], a[j] = Fraction(1), Fraction(-1)
            rows.append((a, Fraction(0)))
    return Arrangement.from_lists(k, rows)
