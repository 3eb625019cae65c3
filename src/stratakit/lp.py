"""Exact rational linear programming for face realizability.

Sign-vector faces are open polyhedra {equalities, strict inequalities}.
Strict feasibility is decided by maximizing a slack bound t subject to
g.x - t >= h for each strict row and t <= 1: the system is realizable iff
the optimum is positive. The simplex method uses Bland's rule, so it
terminates and never misclassifies a degenerate face. Optimal dual
multipliers are retained as infeasibility certificates.

The tableau holds integers (Edmonds' integer pivoting, the rule of
Bareiss elimination). Each row is an integer vector R with a positive
scale d, and the true row is R / d. An input row becomes such a row once
per call: an all-int row as it is with scale 1, any other multiplied by
the lcm of its denominators. Witness, margin and certificate become
Fractions once, at the end. A pivot on entry p of row r makes every other
row p*R_i - R_i[col]*R_r with scale p*d_i. A row is divided by the gcd of
its entries and scale only once its scale passes 2^62 (_BOUND), not after
every update, so most row updates of the program's small systems pay no
gcd. Bland's entering test reads the sign of an integer entry, and
the ratio test compares rhs_i*a_k with rhs_k*a_i (the scales cancel), so
neither reads the scale and the pivots are the ones a Fraction tableau
takes, reduced rows or not. Fraction appears only at the boundary.

Stored columns. Of the columns a textbook tableau has, only these are
stored: x+ and t+ (nvars + 1), one slack per inequality row (s) and one
artificial per equality row (e), then the rhs, so a row update costs
nvars + s + e + 2 multiply-subtracts.
- The split x = x+ - x-, t = t+ - t- keeps only its x+ and t+ columns: the
  x- and t- columns are their negatives in every row and stay so under row
  operations, so Bland's rule reads them by a sign flip (_column).
- The artificial column of inequality row r is sigma_r times its slack
  column in every constraint row, sigma_r being -1 for a strict row and +1
  for t <= 1, times -1 if the row was negated for a nonnegative rhs. Row
  operations keep that; the objective row keeps it too, offset by -1 in
  phase 1, whose objective zeroes the artificial entries. Artificials
  never enter and keep their labels, so the pivots do not change, and the
  certificates read an inequality row's artificial entry from its slack:
  the phase-1 multiplier is -sigma_r*obj[slack_r]/s and the phase-2 y_r
  is -sigma_r*signs[r]*obj[slack_r]/s.

Every result is checked before it is returned (_check), on the integer
rows: a witness must satisfy every row and a certificate must prove the
infeasibility, or RuntimeError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = ["Feasibility", "strict_feasibility", "rational_rank"]

ZERO = Fraction(0)


@dataclass(frozen=True)
class Feasibility:
    """Outcome of a strict-feasibility check.

    feasible: whether the open system has a rational solution.
    witness: a solution point (when feasible), or the optimal x (when the
        equalities are consistent but the stricts are not).
    margin: the optimal slack bound t* (None if the equalities alone are
        inconsistent).
    certificate: None when feasible. Otherwise, with the rows numbered
        stricts first, then equalities, then t <= 1:
        - {"phase": 1, "multipliers": m, "signs": s}: the equalities are
          inconsistent. m[i] * s[i] weights row i (0 on all but the
          equality rows), and the weighted equality rows add up to
          0 = nonzero.
        - {"phase": 2, "y": y, "w": w, "bound": t*}: t* <= 0. y weights
          the strict rows, each read as g.x - t >= h, and the t <= 1 row;
          w weights the equality rows. The weighted rows add up to the
          functional t with right-hand side t*. Every strict-row y is
          <= 0 and not all are 0, and y on t <= 1 is >= 0, so no x meets
          every strict row.
    """

    feasible: bool
    witness: tuple[Fraction, ...] | None
    margin: Fraction | None
    certificate: dict | None


def _scaled(values) -> tuple[list[int], int]:
    """An integer vector and a positive scale whose quotient is values.
    An all-int list comes back as it is, with scale 1."""
    if all(type(v) is int for v in values):
        return values, 1
    fracs = [v if type(v) in (int, Fraction) else Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (scale // v.denominator) for v in fracs], scale


def _system(equalities, stricts, nvars: int) -> list[tuple[list[int], int, str]]:
    """The rows of the program as (vector, scale, kind): the vector lists
    the x coefficients, the t coefficient and the rhs, and divided by the
    positive scale it is the true row. Stricts g.x - t >= h come first,
    then equalities e.x = f, then t <= 1. An all-int row is copied once,
    into its vector with scale 1; any other is scaled first (``_scaled``).
    A coefficient list whose length is not nvars raises ValueError naming
    its row."""
    rows = []
    parts = (("ge", "strict", stricts), ("eq", "equality", equalities))
    for kind, name, given in parts:
        for i, (coeffs, rhs) in enumerate(given):
            if len(coeffs) != nvars:
                raise ValueError(
                    f"{name} row {i} has {len(coeffs)} coefficients, expected {nvars}"
                )
            ge = kind == "ge"
            if type(rhs) is int and all(type(v) is int for v in coeffs):
                rows.append(([*coeffs, -1 if ge else 0, rhs], 1, kind))
                continue
            vec, scale = _scaled([*coeffs, rhs])
            rows.append((vec[:-1] + [-scale if ge else 0, vec[-1]], scale, kind))
    rows.append(([0] * nvars + [1, 1], 1, "le"))
    return rows


# a row is divided by its gcd only once its scale passes this bound
_BOUND = 1 << 62


def _reduced(vec: list[int], scale: int) -> tuple[list[int], int]:
    g = gcd(scale, *vec)
    if g > 1:
        return [v // g for v in vec], scale // g
    return vec, scale


def _column(label: int, nfree: int) -> tuple[int, int]:
    """Stored column and sign of a column label below ncore. Labels number
    x+ and t+ (0..nfree-1), then x- and t- (nfree..2*nfree-1), then the
    slacks. The tableau stores no x- or t- column: each is the negated x+
    or t+ column in every row, and stays so under row operations."""
    if label < nfree:
        return label, 1
    if label < 2 * nfree:
        return label - nfree, -1
    return label - nfree, 1


def _entering(obj, nfree: int, nart: int) -> tuple[int, int, int] | None:
    """Bland's entering label with its stored column and sign (see
    _column): the smallest improving label below ncore, so x+ first, then
    the virtual x-, then the slacks (stored below nart)."""
    for j in range(nfree):
        if obj[j] > 0:
            return j, j, 1
    for j in range(nfree):
        if obj[j] < 0:
            return nfree + j, j, -1
    for j in range(nfree, nart):
        if obj[j] > 0:
            return nfree + j, j, 1
    return None


def _bland_simplex(tab, scale, basis, nfree, nart):
    """Maximize the objective stored in the last tableau row.

    tab is a list of integer rows [stored columns | rhs], row i standing
    for tab[i] / scale[i]; the last row holds reduced costs (entry > 0
    means entering improves). Columns are named by label (see _column).
    Entering: smallest improving label below ncore; leaving: smallest
    basis label among minimal ratios. Returns False when unbounded.
    """
    m = len(tab) - 1
    while True:
        entering = _entering(tab[-1], nfree, nart)
        if entering is None:
            return True
        label, col, sign = entering
        pivot_row = None
        for i in range(m):
            row = tab[i]
            a = row[col] * sign
            if a > 0:
                rhs = row[-1]
                if pivot_row is None:
                    pivot_row, best_rhs, best_a = i, rhs, a
                    continue
                lhs = rhs * best_a
                other = best_rhs * a
                if lhs < other or (lhs == other and basis[i] < basis[pivot_row]):
                    pivot_row, best_rhs, best_a = i, rhs, a
        if pivot_row is None:
            return False
        _pivot(tab, scale, basis, pivot_row, label, col, sign)


def _pivot(tab, scale, basis, row, label, col, sign):
    """Pivot on the entry of the given label (stored at col with sign) in
    the given row; a row is reduced only when its scale passes _BOUND."""
    prow = tab[row]
    p = prow[col] * sign
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    # the pivot row divided by its pivot entry has scale p
    if p > _BOUND:
        prow, p = _reduced(prow, p)
    tab[row] = prow
    scale[row] = p
    for i, r in enumerate(tab):
        f = r[col] * sign
        if f and i != row:
            vec = [p * a - f * b for a, b in zip(r, prow)]
            d = p * scale[i]
            if d > _BOUND:
                vec, d = _reduced(vec, d)
            tab[i] = vec
            scale[i] = d
    basis[row] = label


def strict_feasibility(
    equalities: list[tuple[list[Fraction], Fraction]],
    stricts: list[tuple[list[Fraction], Fraction]],
    nvars: int,
) -> Feasibility:
    """Decide {e.x = f for equalities, g.x > h for stricts} over the
    rationals. Coefficients may be ints, Fractions or a mix; a list of
    coefficients whose length is not nvars raises ValueError."""
    rows = _system(equalities, stricts, nvars)
    result = _solve(rows, nvars)
    _check(rows, nvars, result)
    return result


def _solve(rows, nvars: int) -> Feasibility:
    # column labels: x+ (nvars), t+, x- (nvars), t-, slacks, artificials
    # (label ncore + r for row r); x- and t- are not stored (see _column),
    # nor the artificial of an inequality row, which is sigma_r times its
    # slack column (see the module docstring)
    nfree = nvars + 1  # x and t, both sign-free
    neq = sum(kind == "eq" for *_, kind in rows)
    nart = nfree + len(rows) - neq  # stored index of the first artificial
    ncore = nfree + nart
    width = nart + neq  # stored columns

    tab: list[list[int]] = []
    scale: list[int] = []
    signs = []
    # each row's (stored column, sigma): its artificial's for an equality
    # (sigma 0), else its slack's, with artificial = sigma * slack
    cols = []
    si = nfree
    ai = nart
    for vec, d, kind in rows:
        row = vec[:-1] + [0] * (width - nfree) + vec[-1:]
        if kind != "eq":
            row[si] = -d if kind == "ge" else d
        sign = 1
        if row[-1] < 0:
            row = [-v for v in row]
            sign = -1
        if kind == "eq":
            row[ai] = d
            cols.append((ai, 0))
            ai += 1
        else:
            cols.append((si, -sign if kind == "ge" else sign))
            si += 1
        signs.append(sign)
        tab.append(row)
        scale.append(d)

    basis = [ncore + i for i in range(len(rows))]

    # phase 1: maximize -sum(artificials); the objective row is the sum of
    # the rows, whose artificial entries cancel the -1s; the derived
    # artificial of an inequality row reads sigma * slack - 1 here
    common = lcm(*scale)
    obj = [0] * (width + 1)
    for row, d in zip(tab, scale):
        f = common // d
        obj = [v + f * r for v, r in zip(obj, row)]
    for j in range(nart, width):
        obj[j] = 0
    s = common
    if s > _BOUND:
        obj, s = _reduced(obj, s)
    tab.append(obj)
    scale.append(s)
    _bland_simplex(tab, scale, basis, nfree, nart)  # artificials never re-enter
    # objective value is -tab[-1][-1]; equalities are consistent iff it is 0
    obj, s = tab[-1], scale[-1]
    if obj[-1] > 0:
        cert = {
            "phase": 1,
            "multipliers": [
                Fraction(-sigma * obj[c] if sigma else -s - obj[c], s)
                for c, sigma in cols
            ],
            "signs": list(signs),
        }
        return Feasibility(False, None, None, cert)

    # drive any artificial still basic at zero level out of the basis; the
    # first nonzero label is never an x- (its x+ comes first and is nonzero)
    for i in range(len(rows)):
        if basis[i] >= ncore:
            j = next((j for j in range(nart) if tab[i][j] != 0), None)
            if j is not None:
                _pivot(tab, scale, basis, i, j if j < nfree else j + nfree, j, 1)

    # phase 2: maximize t = t+ - t-; a basic t+ or t- is priced out with
    # its row, whose basic entry equals its scale
    obj = [0] * (width + 1)
    obj[nvars] = 1
    s = 1
    for i, label in enumerate(basis):
        if label < ncore:
            col, sign = _column(label, nfree)
            f = obj[col] * sign
            if f:
                d = scale[i]
                obj = [d * v - f * r for v, r in zip(obj, tab[i])]
                s *= d
                if s > _BOUND:
                    obj, s = _reduced(obj, s)
    tab[-1] = obj
    scale[-1] = s
    if not _bland_simplex(tab, scale, basis, nfree, nart):
        raise RuntimeError("slack-bounded program cannot be unbounded")

    # x_j and t are read from the one basic row of x+ or x- (t+ or t-):
    # the two columns are negatives of each other, so never both basic
    values = [ZERO] * nfree
    for i, label in enumerate(basis):
        if label < 2 * nfree:
            col, sign = _column(label, nfree)
            values[col] = Fraction(sign * tab[i][-1], scale[i])
    x = tuple(values[:nvars])
    margin = values[nvars]
    if margin > 0:
        return Feasibility(True, x, margin, None)
    # dual multipliers from the reduced costs of the artificial columns,
    # sigma * slack for an inequality row
    obj, s = tab[-1], scale[-1]
    y = {}
    w = {}
    for ridx, (c, sigma) in enumerate(cols):
        if sigma:
            y[ridx] = Fraction(-sigma * signs[ridx] * obj[c], s)
        else:
            w[ridx] = Fraction(-obj[c] * signs[ridx], s)
    cert = {"phase": 2, "y": y, "w": w, "bound": margin}
    return Feasibility(False, x, margin, cert)


def _combination(rows, weights) -> tuple[list[int], int]:
    """sum_i weights[i] * rows[i] over the true rows, as an integer vector
    and a positive scale. weights maps row indices to Fractions."""
    terms = [(rows[i], c) for i, c in weights.items() if c]
    common = lcm(*(c.denominator * d for (_, d, _), c in terms))
    total = [0] * len(rows[-1][0])
    for (vec, d, _), c in terms:
        f = c.numerator * (common // (c.denominator * d))
        total = [t + f * v for t, v in zip(total, vec)]
    return total, common


def _check(rows, nvars: int, result: Feasibility) -> None:
    """Raise RuntimeError unless result is proved on rows (from _system):
    a feasible witness satisfies every equality and strict row; a
    certificate meets the conditions in the Feasibility docstring."""
    cert = result.certificate
    if result.feasible:
        point, den = _scaled(result.witness)
        for vec, _, kind in rows:
            if kind == "le":
                continue
            lhs = sum(a * v for a, v in zip(vec, point))
            rhs = vec[-1] * den
            if not (lhs == rhs if kind == "eq" else lhs > rhs):
                raise RuntimeError(f"LP witness violates a row: {result}")
        return
    if cert["phase"] == 1:
        weights = {
            i: m * s
            for i, ((*_, kind), m, s) in enumerate(
                zip(rows, cert["multipliers"], cert["signs"])
            )
            if kind == "eq"
        }
        total, _ = _combination(rows, weights)
        if any(total[:-1]) or not total[-1]:
            raise RuntimeError(f"LP phase-1 certificate is no proof: {result}")
        return
    margin = cert["bound"]
    y = cert["y"]
    strict_y = [m.numerator for i, m in y.items() if rows[i][2] == "ge"]
    bound_y = [m.numerator for i, m in y.items() if rows[i][2] == "le"]
    total, common = _combination(rows, {**y, **cert["w"]})
    if (
        margin != result.margin
        or margin.numerator > 0
        or any(total[:nvars])
        or total[nvars] != common
        or total[-1] * margin.denominator != margin.numerator * common
        or max(strict_y, default=0) > 0
        or not any(strict_y)
        or min(bound_y, default=0) < 0
    ):
        raise RuntimeError(f"LP phase-2 certificate is no proof: {result}")


def _rank(rows) -> int:
    """Rank of a rational matrix by fraction-free (Bareiss) elimination.

    Each row is first multiplied by the lcm of its denominators, which
    keeps the rank; an all-int row is only copied. Below the pivot, every
    entry becomes (p*a - f*b) // prev, prev being the previous pivot: the
    division is exact, since each entry is a minor of the integer matrix.
    Rows of unequal length raise ValueError naming the first such row.
    """
    n = len(rows[0]) if rows else 0
    M = []
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError(f"row {i} has {len(r)} entries, expected {n}")
        M.append(list(_scaled(r)[0]))
    m = len(M)
    rank = 0
    prev = 1
    for col in range(n):
        if rank == m:
            break
        pivot = next((i for i in range(rank, m) if M[i][col]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        prow = M[rank][col:]
        p = prow[0]
        for i in range(rank + 1, m):
            r = M[i]
            f = r[col]
            r[col:] = [(p * a - f * b) // prev for a, b in zip(r[col:], prow)]
        prev = p
        rank += 1
    return rank


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by exact fraction-free elimination."""
    return _rank(rows)
