"""Exact rational linear programming for face realizability.

Sign-vector faces are open polyhedra {equalities, strict inequalities}.
Strict feasibility is decided by maximizing a slack bound t subject to
g.x - t >= h for each strict row and t <= 1: the system is realizable iff
the optimum is positive. The simplex method uses Bland's rule, so it
terminates and never misclassifies a degenerate face. Optimal dual
multipliers are retained as infeasibility certificates.

Start. Each inequality row is written with a positive slack coefficient
and starts on its slack: a strict row as -g.x + t + s = -h, and t + s = 1.
Only an equality row starts on an artificial, negated first if its rhs is
negative. As x is free, each equality row in turn is then solved for its
first x with a nonzero entry, one pivot with no pricing and no ratio test,
read as x+ or x- so that the row's rhs stays >= 0. A row with no x entry
left is 0 = rhs: if its rhs is nonzero, the equalities are inconsistent
and its artificial entries weight them into that contradiction (the
phase-1 certificate; no inequality row has been pivoted on yet, so every
slack entry is 0); if it is 0, the row is redundant and stays inert, its
artificial basic at 0 and every entry a pivot can read 0. A later pivot
may leave an eliminated row's rhs negative: that row is negated and read
with x- for x+ (or back), the same basic solution. A strict row with
h > 0 is then the only infeasible row, and t- enters the one with the
largest true h in one pivot (the first on ties; h_i is -rhs_i/t_i on the
tableau, compared as rhs_i*t_w < rhs_w*t_i, since the eliminations have
moved the row scales): every other strict row i then reads h_r - h_i >= 0,
and t <= 1 reads 1 + h_r. This is the auxiliary-variable start of
Chvatal, Linear Programming (1983), ch. 8, with the free t as x0. No
phase-1 objective is built and Bland's rule runs in phase 2 only. Per
seed-1 ``arrangement`` benchmark pass (2,538 LPs), the all-artificial
start took 15,264 phase-1 and 33 phase-2 Bland pivots; phase 1 on the
equality rows after one t- pivot took 1,284 start, 5,797 phase-1 and
2,676 phase-2 pivots (9,757); this start takes 2,888 elimination, 1,072
t- and 3,968 phase-2 pivots (7,928).

One denominator. The tableau holds integer rows R over one common positive
denominator D, the true tableau being R / D (Edmonds' integer pivoting,
the rule of Bareiss elimination). Every row enters at D = 1 as its integer
vector from _system: an all-int row as it is, any other times the lcm d of
its denominators. A pivot on entry p of row r keeps R_r, makes every other
row (p*R_i - R_i[col]*R_r) // D, and D becomes p; if p < 0, which happens
at the start pivots, R_r and p are negated first (the same as negating
every row and taking D = -p). Each entry is then a minor of the input rows
(the objective among them), so every division is exact, entries stay as
small as those minors, and no row is ever divided by a common factor. The
pivots are the ones a Fraction tableau of the true rows takes: a row that
entered times d is its true row times d until it is pivoted on, and a
positive row scale changes neither the ratio test, which compares
rhs_i*a_k with rhs_k*a_i, nor the signs that Bland's entering test and the
start read. Phase 2 prices out the basic t- row at D (D*e_t + R_t) and is
read over D. Witness, margin and certificate become Fractions once, at the
end, with ZERO for a zero.

Stored columns. Of the columns a textbook tableau has, only these are
stored: x+ and t+ (nvars + 1), one slack per inequality row and one
artificial per equality row, then the rhs, so a row update costs nvars +
(number of rows) + 2 multiply-subtract-divides. The split x = x+ - x-,
t = t+ - t- keeps only its x+ and t+ columns: the x- and t- columns are
their negatives in every row and stay so under row operations, so Bland's
rule reads them by a sign flip, and a pivot on an x- column updates the
rows with the negated pivot row. Each row's starting basic column, its
slack or its artificial, is +1 in its own true row and 0 in the others,
so a row's entries there weight the starting rows into it: the phase-1
certificate reads them from the inconsistent row, and the phase-2
certificate reads each row's dual from that column's reduced cost.

Every result is checked before it is returned (_check), against the rows
from _system: a witness must satisfy every row and a certificate must
prove the infeasibility, or RuntimeError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

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


def _fraction(v, where: str) -> Fraction:
    """v, an int or a Fraction, as a Fraction. Any other value raises
    TypeError naming where: a float stands for its binary value (0.1
    would be read as 3602879701896397/2**55), a bool for 0 or 1, and a
    str or a Decimal would be parsed, so none is an exact coefficient."""
    if type(v) is not int and not isinstance(v, Fraction):
        raise TypeError(
            f"{where} has a {type(v).__name__} coefficient {v!r}; "
            "give an int or a Fraction"
        )
    return Fraction(v)


def _scaled(values, where: str) -> tuple[list[int], int]:
    """An integer vector and a positive scale whose quotient is values.
    An all-int list comes back as it is, with scale 1; a value that is
    not an int or a Fraction raises TypeError naming where (``_fraction``)."""
    if all(type(v) is int for v in values):
        return values, 1
    fracs = [v if type(v) in (int, Fraction) else _fraction(v, where) for v in values]
    scale = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (scale // v.denominator) for v in fracs], scale


def _system(equalities, stricts, nvars: int) -> list[tuple[list[int], int, str]]:
    """The rows of the program as (vector, scale, kind): the vector lists
    the x coefficients, the t coefficient and the rhs, and divided by the
    positive scale it is the true row. Stricts g.x - t >= h come first,
    then equalities e.x = f, then t <= 1. An all-int row is copied once,
    into its vector with scale 1; any other is scaled first (``_scaled``).
    A coefficient list whose length is not nvars raises ValueError naming
    its row, and a coefficient that is not an int or a Fraction TypeError."""
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
            vec, scale = _scaled([*coeffs, rhs], f"{name} row {i}")
            rows.append((vec[:-1] + [-scale if ge else 0, vec[-1]], scale, kind))
    rows.append(([0] * nvars + [1, 1], 1, "le"))
    return rows


def _pivot(tab, r, col, sign, d) -> int:
    """Pivot tab, integer rows over the common denominator d, on row r and
    stored column col, read as its x- (or t-) column when sign is -1, and
    return the new denominator: the pivot entry, made positive first by
    negating row r if it is not."""
    prow = tab[r]
    p = sign * prow[col]
    if p < 0:
        prow = tab[r] = [-v for v in prow]
        p = -p
    # a pivot on x- updates the rows with the negated pivot row; the
    # pivot row has a nonzero f and is kept
    urow = prow if sign > 0 else [-v for v in prow]
    for i, row in enumerate(tab):
        f = row[col]
        if f:
            if i != r:
                tab[i] = [(p * a - f * b) // d for a, b in zip(row, urow)]
        elif p != d:
            tab[i] = [p * a // d for a in row]
    return p


def _simplex(tab, basis, d, nfree, nart) -> int:
    """Pivot tab, integer rows over the common denominator d with the
    objective row last (entry > 0 means entering improves), by Bland's
    rule to the optimum, and return the new denominator. Labels and stored
    columns are as in _solve. The smallest improving label enters: x+ and
    t+ (entry > 0), then x- and t- (entry < 0, read from the x+ column by
    a sign flip), then the slacks; artificials never enter. The smallest
    basis label among the minimal ratios leaves; the ratio test compares
    rhs_i*a_k with rhs_k*a_i."""
    m = len(tab) - 1
    while True:
        obj = tab[m]
        for col in range(nfree):
            if obj[col] > 0:
                label, sign = col, 1
                break
        else:
            for col in range(nfree):
                if obj[col] < 0:
                    label, sign = nfree + col, -1
                    break
            else:
                for col in range(nfree, nart):
                    if obj[col] > 0:
                        label, sign = nfree + col, 1
                        break
                else:
                    return d
        r = None
        for i in range(m):
            row = tab[i]
            a = row[col] * sign
            if a > 0:
                rhs = row[-1]
                if r is None:
                    r, best_rhs, p = i, rhs, a
                    continue
                lhs = rhs * p
                other = best_rhs * a
                if lhs < other or (lhs == other and basis[i] < basis[r]):
                    r, best_rhs, p = i, rhs, a
        if r is None:
            raise RuntimeError("slack-bounded program cannot be unbounded")
        d = _pivot(tab, r, col, sign, d)
        basis[r] = label


def strict_feasibility(
    equalities: list[tuple[list[Fraction], Fraction]],
    stricts: list[tuple[list[Fraction], Fraction]],
    nvars: int,
) -> Feasibility:
    """Decide {e.x = f for equalities, g.x > h for stricts} over the
    rationals. Coefficients may be ints, Fractions or a mix; any other
    value (a float, a bool, a str) raises TypeError, and a list of
    coefficients whose length is not nvars ValueError."""
    rows = _system(equalities, stricts, nvars)
    result = _solve(rows, nvars)
    _check(rows, nvars, result)
    return result


def _solve(rows, nvars: int) -> Feasibility:
    # column labels: x+ (nvars), t+, x- (nvars), t-, slacks, artificials;
    # x- and t- are not stored, so a stored column past t+ has label
    # column + nfree
    nfree = nvars + 1  # x and t, both sign-free
    neq = [kind for *_, kind in rows].count("eq")
    nstrict = len(rows) - neq - 1
    nart = nfree + nstrict + 1  # stored index of the first artificial
    width = nart + neq  # stored columns

    # every row starts on the column that is +d in it and 0 in every other
    # row: an inequality row on its slack, an equality row on its
    # artificial. A strict row g.x - t - s = h is negated so that its slack
    # enters +d; an equality row is negated if its rhs is negative
    tab: list[list[int]] = []
    signs = []
    cols = []  # each row's starting basic column
    si = nfree
    ai = nart
    zeros = [0] * (width - nfree)
    for vec, d, kind in rows:
        sign = -1 if kind == "ge" or (kind == "eq" and vec[-1] < 0) else 1
        row = [-v for v in vec] if sign < 0 else vec[:]
        rhs = row.pop()
        row += zeros
        row.append(rhs)
        if kind == "eq":
            row[ai] = d
            cols.append(ai)
            ai += 1
        else:
            row[si] = d
            cols.append(si)
            si += 1
        signs.append(sign)
        tab.append(row)
    basis = [c + nfree for c in cols]

    # each equality row is solved for its first x with a nonzero entry,
    # read as x+ or x- so that the row's rhs stays >= 0 (the module
    # docstring's Start); a row with no x entry left is 0 = rhs
    d = 1
    eqs = range(nstrict, nstrict + neq)
    for r in eqs:
        row = tab[r]
        col = next((j for j in range(nvars) if row[j]), None)
        if col is not None:
            sign = 1 if (row[col] > 0) == (row[-1] >= 0) else -1
            d = _pivot(tab, r, col, sign, d)
            basis[r] = col if sign > 0 else nfree + col
        elif row[-1]:
            # inconsistent: the row, which entered times its scale, is the
            # sum of the signed true rows weighted by its artificial
            # entries; every slack entry is still 0
            s = d * rows[r][1]
            mults = (row[c] for c in cols)
            cert = {
                "phase": 1,
                "multipliers": [Fraction(v, s) if v else ZERO for v in mults],
                "signs": signs,
            }
            return Feasibility(False, None, None, cert)
        # else redundant: its artificial stays basic at 0, and every entry
        # a pivot can read is 0
    # a later elimination may have left an eliminated row's rhs negative:
    # negated, with x+ read as x- (or back), it is the same solution
    for r in eqs:
        if tab[r][-1] < 0:
            tab[r] = [-v for v in tab[r]]
            basis[r] = (basis[r] + nfree) % (2 * nfree)

    # a strict row with a negative rhs is the only infeasible row now: t-
    # enters the one whose true rhs R[-1]/R[t] is the most negative (the
    # first on ties), after which every inequality row is feasible. Phase 2
    # maximizes t = t+ - t-, priced out with the basic row of t-, whose t+
    # entry is -d
    worst = None
    for i in range(nstrict):
        row = tab[i]
        if row[-1] < 0 and (
            worst is None or row[-1] * tab[worst][nvars] < tab[worst][-1] * row[nvars]
        ):
            worst = i
    if worst is None:
        obj = [0] * (width + 1)
        obj[nvars] = d
    else:
        d = _pivot(tab, worst, nvars, -1, d)
        basis[worst] = nfree + nvars
        obj = tab[worst][:]
        obj[nvars] = 0
    tab.append(obj)
    d = _simplex(tab, basis, d, nfree, nart)

    # x_j and t are read from the one basic row of x+ or x- (t+ or t-):
    # the two columns are negatives of each other, so never both basic
    values = [ZERO] * nfree
    for i, label in enumerate(basis):
        v = tab[i][-1]
        if label < 2 * nfree and v:
            col, v = (label, v) if label < nfree else (label - nfree, -v)
            values[col] = Fraction(v, d)
    x = tuple(values[:nvars])
    margin = values[nvars]
    if margin.numerator > 0:
        return Feasibility(True, x, margin, None)
    # dual multipliers from the reduced costs of the starting basic
    # columns, each +1 in its own true row and 0 in the others at the start
    obj = tab[-1]
    y = {}
    w = {}
    for i, c in enumerate(cols):
        v = -obj[c] * signs[i]
        (w if rows[i][2] == "eq" else y)[i] = Fraction(v, d) if v else ZERO
    cert = {"phase": 2, "y": y, "w": w, "bound": margin}
    return Feasibility(False, x, margin, cert)


def _combination(rows, weights) -> tuple[list[int], int]:
    """sum_i weights[i] * rows[i] over the true rows, as an integer vector
    and a positive scale. weights maps row indices to Fractions."""
    vecs, nums, dens = [], [], []
    for i, c in weights.items():
        n, e = c.as_integer_ratio()
        if n:
            vec, d, _ = rows[i]
            vecs.append(vec)
            nums.append(n)
            dens.append(e * d)
    common = lcm(*dens)
    factors = [n * (common // e) for n, e in zip(nums, dens)]
    total = [sum(map(mul, factors, col)) for col in zip(*vecs)]
    return total or [0] * len(rows[-1][0]), common


def _check(rows, nvars: int, result: Feasibility) -> None:
    """Raise RuntimeError unless result is proved on rows (from _system):
    a feasible witness satisfies every equality and strict row; a
    certificate meets the conditions in the Feasibility docstring."""
    cert = result.certificate
    if result.feasible:
        point, den = _scaled(result.witness, "LP witness")
        for vec, _, kind in rows:
            if kind == "le":
                continue
            # point has nvars entries, so only the x coefficients are read
            lhs = sum(map(mul, vec, point))
            rhs = vec[-1] * den
            if not (lhs == rhs if kind == "eq" else lhs > rhs):
                raise RuntimeError(f"LP witness violates a row: {result}")
        return
    if cert["phase"] == 1:
        # a phase-1 certificate weights the equality rows only: it is read
        # before any inequality row is pivoted on (the module docstring's
        # Start)
        weights = {}
        stray = False
        for i, ((*_, kind), m, s) in enumerate(
            zip(rows, cert["multipliers"], cert["signs"])
        ):
            if kind == "eq":
                weights[i] = m * s
            elif m:
                stray = True
        total, _ = _combination(rows, weights)
        if stray or any(total[:-1]) or not total[-1]:
            raise RuntimeError(f"LP phase-1 certificate is no proof: {result}")
        return
    margin = cert["bound"]
    y = cert["y"]
    strict_y = [m.numerator for i, m in y.items() if rows[i][2] == "ge"]
    bound_y = [m.numerator for i, m in y.items() if rows[i][2] == "le"]
    total, common = _combination(rows, {**y, **cert["w"]})
    num, den = margin.as_integer_ratio()
    if (
        margin != result.margin
        or num > 0
        or any(total[:nvars])
        or total[nvars] != common
        or total[-1] * den != num * common
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
    Rows of unequal length raise ValueError naming the first such row, and
    an entry that is not an int or a Fraction TypeError naming its row.
    """
    n = len(rows[0]) if rows else 0
    M = []
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError(f"row {i} has {len(r)} entries, expected {n}")
        M.append(list(_scaled(r, f"row {i}")[0]))
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
    """Rank of a rational matrix by exact fraction-free elimination; the
    entries are ints or Fractions, and any other value raises TypeError."""
    return _rank(rows)
