"""Exact linear programming by fraction-free simplex, with a primal-dual
certificate.

Problems are given in equality standard form:

    minimise c . x   subject to   A x = b,  x >= 0.

The objective c is a dense list of n values, one per column.  Each row of A
is sparse: a list of (column, coefficient) pairs in strictly ascending
column order, every column in range(n) and every coefficient nonzero.  The
right-hand sides b are one value per row.  Every value is an int or a
``Fraction``; anything else raises ``LpError``.  Checking the rows, scaling
them to primitive integers, seeding the tableau and the phase 1 objective,
transposing the basic columns for the dual, and replaying A x = b and
A^T y <= c all run in O(nnz), the number of input pairs.  The tableau is
dense: only the pivots, the drive-out and the phase 2 objective read it.

The solver is a two-phase primal simplex.  No floating point is used
anywhere, and every choice is deterministic.

Pivot rule.  The entering column is chosen by Dantzig's rule: the most
negative reduced cost, ties to the lowest index.  The leaving row has the
lowest ratio, ties to the lowest basic index.  A pivot is degenerate when
its leaving row has right-hand side 0.  After ``BLAND_AFTER`` degenerate
pivots in a row, the entering column is chosen by Bland's rule (Bland 1977:
the lowest-index column of negative reduced cost) until the next
nondegenerate pivot; then Dantzig's rule resumes and the count restarts.
The switch is temporary on purpose: Bland's rule is immune to cycling but
takes many more pivots.  On scl([a,b]^5) it took 4532 pivots alone, 4084
when it stayed on after its first use, and 677 as a temporary fallback.

Termination.  Within a run of degenerate pivots the objective value does
not move.  Once such a run reaches ``BLAND_AFTER`` pivots, Bland's rule
chooses every pivot until the run ends, so the run cannot cycle and is
finite.  Each nondegenerate pivot strictly lowers the objective value, so
no basis recurs after it.  There are finitely many bases, so there are
finitely many nondegenerate pivots, and the phase ends.

Integer rows.  Each input row and its right-hand side are scaled to a
primitive integer vector with b_i >= 0 (so positive rescalings of a row give
the same problem).  Every tableau row is a list of Python ints whose implicit
denominator is its entry in its basic column; that entry is kept positive.
Pivoting on (r, c) with p = T[r][c] > 0 leaves row r alone and replaces each
row i with f = T[i][c] != 0 by p T[i] - f T[r], in the manner of Edmonds
(1967) and Avis's lrs; the basic entry of row i becomes a positive multiple
of the old one.  When p != 1 the new row is divided by the gcd of its
entries; when p == 1 no factor was brought in, and a common factor that the
subtraction leaves stays until the row's next pivot with p != 1.  The
objective row is held the same way, with its positive scale in an extra
column that is zero in every constraint row and is never a pivot column.
Phase 1 runs on n + m columns, the m artificials included.  Once it ends,
no artificial can enter again, so the artificial columns and the phase 1
objective row are cut out of the tableau before the drive-out pivots and
phase 2.  A row still basic in its artificial is then redundant: it has
zeros in every original column, and a pivot may cancel it to all zeros,
whose gcd is 0 and which is left as it is.

Same pivots as rational arithmetic.  Row i stands for T[i] / T[i][basis[i]],
a positive multiple of the rational tableau row, whatever common factor it
still carries, so every sign test (which reduced cost is negative, which
entry is positive, which leaving row has rhs 0) reads the same.  Every
reduced cost is its objective-row entry over the one positive scale of that
row, so the most negative entry, and the first of equal entries, pick the
same column as the rational reduced costs.  The ratio of row i is
T[i][-1] / T[i][c], in which the denominator cancels; the ratio test
compares T[i][-1] * a_best with best * a_i.  Cutting columns that are never
read again changes none of these numbers.  Hence the basis sequence, the
solution and the pivot count are those of the Fraction tableau on the same
primitive rows, artificial columns kept.

Certificate.  At the optimum the dual y solves A_B^T y = c_B over the
basic original columns, on the caller's own rows, with y_k = 0 for each
artificial n + k still basic (k is its artificial's row, which need not be
the tableau row that holds it).  With those artificials the basis is
nonsingular, so this y is unique: the y that makes every basic reduced
cost zero.  Scaling row k to a primitive row would only divide y_k by the
same factor.  One sparse ``exactlin.solve_q`` finds y, and ``solve_lp``
verifies x >= 0, A x = b, A^T y <= c and b . y = c . x against the
caller's data, as ``replay_check`` does after checking that data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exactlin import solve_q


# a run of this many degenerate pivots switches the entering rule to Bland's
# until the next nondegenerate pivot
BLAND_AFTER = 50
PIVOT_LIMIT = 2_000_000


class LpError(RuntimeError):
    pass


@dataclass
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    value: Fraction | None
    solution: list | None
    pivots: int = 0
    dual: list | None = None  # y with A^T y <= c and b . y = value
    bland_pivots: int = 0  # pivots whose column Bland's rule chose

    def certificate(self):
        def strs(xs):
            return None if xs is None else [str(x) for x in xs]

        return {
            "status": self.status,
            "value": None if self.value is None else str(self.value),
            "solution": strs(self.solution),
            "dual": strs(self.dual),
            "pivots": self.pivots,
            "bland_pivots": self.bland_pivots,
        }


def _common_denominator(values):
    """(integers, d) with values[j] == integers[j] / d."""
    if all(type(v) is int for v in values):
        return list(values), 1
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise LpError("LP data must be int or Fraction")
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _check_problem(objective, a_rows, b_vals):
    """Refuse rows that are not sorted (column, nonzero coefficient) pairs
    over the objective's columns, values that are not int or Fraction, and
    a rhs count other than the row count."""
    if len(a_rows) != len(b_vals):
        raise LpError(f"{len(a_rows)} rows but {len(b_vals)} right-hand sides")
    _common_denominator(objective)
    _common_denominator(b_vals)
    n = len(objective)
    try:
        for i, row in enumerate(a_rows):
            last = -1
            for j, v in row:
                if type(j) is not int or not 0 <= j < n:
                    raise LpError(f"row {i}: column {j!r} outside range({n})")
                if j <= last:
                    raise LpError(f"row {i}: column {j} out of ascending order or repeated")
                if not isinstance(v, (int, Fraction)):
                    raise LpError("LP data must be int or Fraction")
                if not v:
                    raise LpError(f"row {i}: zero coefficient in column {j}")
                last = j
    except (TypeError, ValueError) as exc:
        raise LpError("an LP row is a list of (column, coefficient) pairs") from exc


def _primitive(row, rhs):
    """The sparse ``row`` and its ``rhs`` times a rational != 0, as a
    primitive integer vector whose rhs is >= 0; returns (pairs, rhs)."""
    ints = _common_denominator([*(v for _, v in row), rhs])[0]
    g = gcd(*ints) or 1
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
    return [(j, v) for (j, _), v in zip(row, ints)], ints[-1]


def _eliminate(r, p, f, support):
    """p * r - f * t, divided by its gcd unless p == 1, where ``support``
    lists the nonzeros (j, t_j)."""
    new = r[:] if p == 1 else [p * v for v in r]
    for j, v in support:
        new[j] -= f * v
    if p == 1:
        return new
    g = gcd(*new)  # 0 when a redundant row cancels to zeros
    return [v // g for v in new] if g > 1 else new


def _support(row):
    return [(j, v) for j, v in enumerate(row) if v]


def _pivot(tab, basis, row, col):
    prow = tab[row]
    p = prow[col]
    if p < 0:  # only when driving out an artificial, whose row has rhs 0
        prow = tab[row] = [-v for v in prow]
        p = -p
    support = _support(prow)
    for i, r in enumerate(tab):
        f = r[col]
        if f and i != row:
            tab[i] = _eliminate(r, p, f, support)
    basis[row] = col


def _simplex_phase(tab, basis, ncols):
    """Minimise the objective stored in the last tableau row: Dantzig's rule,
    with Bland's rule for the rest of a run of ``BLAND_AFTER`` degenerate
    pivots.  Returns (status, pivots, pivots chosen by Bland's rule)."""
    pivots = bland = degenerate = 0
    while True:
        obj = tab[-1]
        fallback = degenerate >= BLAND_AFTER
        if fallback:
            col = next((j for j in range(ncols) if obj[j] < 0), None)
        else:
            least = min(obj[:ncols], default=0)
            col = obj.index(least) if least < 0 else None
        if col is None:
            return "optimal", pivots, bland
        row = None
        best = best_a = None
        for i in range(len(tab) - 1):
            a = tab[i][col]
            if a > 0:
                rhs = tab[i][-1]
                if row is None:
                    better = True
                else:
                    diff = rhs * best_a - best * a  # sign of ratio_i - ratio_best
                    better = diff < 0 or (diff == 0 and basis[i] < basis[row])
                if better:
                    best, best_a, row = rhs, a, i
        if row is None:
            return "unbounded", pivots, bland
        degenerate = degenerate + 1 if best == 0 else 0
        _pivot(tab, basis, row, col)
        pivots += 1
        bland += fallback
        if pivots > PIVOT_LIMIT:
            raise LpError("pivot limit exceeded")


def solve_lp(objective, a_rows, b_vals) -> LpResult:
    """Minimise objective . x subject to a_rows x = b_vals, x >= 0, where
    each row is a sorted list of (column, nonzero coefficient) pairs."""
    m = len(a_rows)
    n = len(objective)
    _check_problem(objective, a_rows, b_vals)

    # columns: n originals, m artificials, the objective scale, the rhs;
    # phase 1 minimises the sum of the artificials
    width = n + m + 2
    tab = []
    obj = [0] * width
    for i, (row, rhs) in enumerate(zip(a_rows, b_vals)):
        pairs, b = _primitive(row, rhs)
        t = [0] * width
        for j, v in pairs:
            t[j] = v
            obj[j] -= v
        t[n + i] = 1
        t[-1] = b
        obj[-1] -= b
        tab.append(t)
    obj[n + m] = 1
    tab.append(obj)
    basis = [n + i for i in range(m)]
    status, p1, b1 = _simplex_phase(tab, basis, n + m)
    if status != "optimal" or tab[-1][-1] != 0:
        return LpResult("infeasible", None, None, p1, bland_pivots=b1)

    # artificials never enter again: cut their columns and the phase 1
    # objective row; columns are now n originals, the objective scale, the rhs
    tab = [t[:n] + t[-2:] for t in tab[:-1]]

    # drive leftover artificials out of the basis where possible; a row
    # still basic in its artificial is redundant and has all zeros in the
    # original columns, so it never enters a ratio test again
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)

    # phase 2 objective, reduced against the current basis
    ints, d = _common_denominator(objective)
    obj = ints + [d, 0]
    for i, bj in enumerate(basis):
        if bj < n and obj[bj]:
            obj = _eliminate(obj, tab[i][bj], obj[bj], _support(tab[i]))
    tab.append(obj)
    status, p2, b2 = _simplex_phase(tab, basis, n)
    if status == "unbounded":
        return LpResult("unbounded", None, None, p1 + p2, bland_pivots=b1 + b2)

    obj = tab[-1]
    s = obj[n]
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = Fraction(tab[i][-1], tab[i][bj])
    y = _dual(objective, a_rows, basis, n)
    result = LpResult("optimal", Fraction(-obj[-1], s), x, p1 + p2, y, b1 + b2)
    _replay_certificate(objective, a_rows, b_vals, result)
    return result


def _dual(objective, rows, basis, n):
    """The dual of the caller's ``rows`` at an optimal basis: y with
    A_B^T y = c_B on the basic original columns and y_k = 0 for each
    artificial n + k still basic, unique because that whole basis is
    nonsingular."""
    cols = [bj for bj in basis if bj < n]
    position = {j: c for c, j in enumerate(cols)}
    basic = set(basis)
    # one pass over the live rows transposes the basic columns
    eqs = [{} for _ in cols]
    for k, row in enumerate(rows):
        if k + n not in basic:
            for j, v in row:
                c = position.get(j)
                if c is not None:
                    eqs[c][k] = v
    y = solve_q(eqs, len(rows), [objective[j] for j in cols])
    if y is None:
        raise LpError("optimal basis is singular")
    return y


def replay_check(objective, a_rows, b_vals, result: LpResult):
    """Check the problem data, then a primal-dual certificate exactly
    against it: x >= 0, A x = b, A^T y <= c and b . y = c . x = value."""
    _check_problem(objective, a_rows, b_vals)
    _replay_certificate(objective, a_rows, b_vals, result)


def _replay_certificate(objective, a_rows, b_vals, result: LpResult):
    """``replay_check`` on data already checked."""
    if result.status != "optimal":
        return
    n, m = len(objective), len(a_rows)
    x, y = result.solution, result.dual
    if x is None or len(x) != n or y is None or len(y) != m:
        raise LpError("certificate has the wrong shape")
    xs, dx = _common_denominator(x)
    ys, dy = _common_denominator(y)
    if any(v < 0 for v in xs):
        raise LpError("negative variable in certificate")
    aty = [0] * n
    for row, rhs, yk in zip(a_rows, b_vals, ys):
        if sum(a * xs[j] for j, a in row) != rhs * dx:
            raise LpError("certificate violates a constraint")
        if yk:
            for j, a in row:
                aty[j] += a * yk
    if any(s > ci * dy for s, ci in zip(aty, objective)):
        raise LpError("dual certificate violates A^T y <= c")
    primal = Fraction(sum(ci * v for ci, v in zip(objective, xs) if ci)) / dx
    dual = Fraction(sum(bk * v for bk, v in zip(b_vals, ys) if v)) / dy
    if primal != result.value:
        raise LpError("certificate objective mismatch")
    if dual != primal:
        raise LpError("dual objective differs from the primal objective")
