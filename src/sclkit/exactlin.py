"""Exact linear algebra over Z and Q.

Sparse rows are the matrix form of the exact solvers: ``kernel_q``,
``solve_q`` and ``peel`` take a list of rows, each a dict
{column: int | Fraction} of its nonzeros, together with the column count,
which an all-zero matrix could not otherwise tell.  A column outside
0 <= c < ncols raises ValueError.  Dense matrices, plain lists of lists,
are the form of ``rank_q`` (it ranks the small dense residual that
``homology._contract`` leaves) and of the Smith normal form and its helpers.
Integer routines never leave Z; rational results are fractions.Fraction.
Everything here is deterministic.

Integer form.  A rational vector is kept as (x, d): {column: int}
numerators of its nonzero entries over one denominator d > 0.  Every
solver works in this form, with no Fraction formed on the way.
Substitution solves one column from one row whose other columns are known;
the denominator grows only when the pivot entry does not divide the row's
sum, and then every numerator is scaled with it.  A kernel vector is a
direction, so ``kernel_q`` returns it in integers: its numerators, which
are the RREF vector times the lcm of its denominators, with a positive
free entry.  A solution is a point, so ``solve_q`` returns
the Fraction view x / d.  ``solve_peeled`` hands the integer form to
callers that want one exact sum at the end, such as the cellular area of
``scl.rot_value``.

Sparse elimination.  ``rank_q``, ``solve_q`` and ``kernel_q`` end in one
routine, ``_eliminate``, on {column: int} rows; a
row with Fraction entries is first multiplied by the lcm of its
denominators, which changes neither the row space nor, for an augmented
row [a | b], the solutions of a . x = b.
Columns are processed left to right, and every active row waits in the
bucket of its first nonzero column not yet processed, so bucket c holds
exactly the active rows that are nonzero in column c.  The pivot of column
c is the row of bucket c with the smallest |entry| there, then the fewest
nonzeros.  Every other row of the bucket, with entry f in column c, becomes
row - (f p) pivot when the pivot p is +-1 and p row - f pivot otherwise,
and is then divided by the gcd of its entries: the fraction-free step of
``lp``.  No Fraction is formed during elimination, and only the rows
meeting column c are touched.

Same vectors as Gauss-Jordan.  Column c gets a pivot iff some active row is
nonzero there, iff column c is not in the span of columns 0..c-1; this does
not depend on which rows were chosen before.  So the pivot columns are the
leftmost column basis, the pivot columns of the reduced row echelon form.
Given them, the solution with free variables 0 and the kernel vector whose
free part is e_j are unique, so back substitution through the echelon rows
returns exactly the vectors read off the RREF.

Peeling singletons.  ``kernel_q`` and ``solve_q`` first run ``peel``, and
``_eliminate`` sees only the rows it leaves.  A row with one column c left
says a x_c = b - (the columns already solved), so x_c is fixed in every
solution (0 in every kernel vector); the peel pivots on it, takes column c
out of every other row and repeats while singletons appear.  Only columns
leave rows, so the peel reads no entry but the pivots' and reports its
order, (column, row index) per pivot, which holds for every right-hand
side: ``solve_peeled`` substitutes a right-hand side through that order,
row by row, checks each row the peel emptied, and eliminates only the rows
left, so one peel serves many right-hand sides.  A peeled column is a pivot
column of the RREF: were column c in the span of columns 0..c-1, the kernel
would hold a vector with x_c = 1.  The other pivot columns are those of the
rows left, since a kernel vector has x_c = 0 anyway; so the pivot columns,
and with them the kernel vectors and the solution with free variables 0,
are exactly those of elimination alone.

Unit pivots over Z.  Nothing here splits unit pivots off a matrix:
``homology._contract`` does, and performs every unit pivot the pipeline's
boundary maps have.  What it leaves is a small dense residual R with the
map unimodularly equivalent to I_k + R, so the rank is k + ``rank_q(R)``
and the invariant factors are k ones followed by those of
``smith_normal_form(R)``.

The Smith normal form uses a fixed pivot rule (smallest nonzero absolute
value, ties broken by lowest row then lowest column index).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            s = ai[t]
            if s:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += s * bt[j]
    return out


def det_int(a):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class SnfError(ArithmeticError):
    """An SnfResult fails one of its invariants."""


@dataclass
class SnfResult:
    """Factorisation U * M * V = D with U, V unimodular and D diagonal.

    The diagonal entries are nonnegative and satisfy d1 | d2 | ... ;
    trailing zeros are allowed.  ``diagonal`` lists min(rows, cols) entries.
    """

    U: list
    D: list
    V: list

    @property
    def diagonal(self):
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def torsion(self):
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(mat) -> SnfResult:
    """Smith normal form of an integer matrix.

    Pivot rule: among nonzero entries of the working block, pick the one of
    smallest absolute value, breaking ties by lowest row then lowest column.
    """
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        ms, md = m[src], m[dst]
        for j in range(cols):
            if ms[j]:
                md[j] += c * ms[j]
        us, ud = u[src], u[dst]
        for j in range(rows):
            if us[j]:
                ud[j] += c * us[j]

    def add_col(src, dst, c):
        for r in m:
            if r[src]:
                r[dst] += c * r[src]
        for r in v:
            if r[src]:
                r[dst] += c * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate pivot
        pivot = None
        best = None
        for i in range(t, rows):
            mi = m[i]
            for j in range(t, cols):
                val = mi[j]
                if val:
                    a = abs(val)
                    if best is None or a < best:
                        best = a
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if m[t][t] < 0:
            negate_row(t)
        # clear row and column t; restart if a remainder creates a smaller entry
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block
        d = m[t][t]
        offender = None
        for i in range(t + 1, rows):
            mi = m[i]
            for j in range(t + 1, cols):
                if mi[j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    return SnfResult(U=u, D=m, V=v)


def check_snf(mat, res: SnfResult):
    """Verify every SnfResult invariant; raise SnfError on failure."""
    if mat_mul(mat_mul(res.U, mat), res.V) != res.D:
        raise SnfError("U*M*V != D")
    if abs(det_int(res.U)) != 1:
        raise SnfError("U not unimodular")
    if abs(det_int(res.V)) != 1:
        raise SnfError("V not unimodular")
    if any(v for i, row in enumerate(res.D) for j, v in enumerate(row) if i != j):
        raise SnfError("D not diagonal")
    diag = res.diagonal
    if any(d < 0 for d in diag):
        raise SnfError("negative invariant factor")
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise SnfError("zero before nonzero in diagonal")
        if a and b % a:
            raise SnfError("divisibility chain broken")


# -- sparse fraction-free elimination ------------------------------------------


def _int_row(row):
    """A sparse row as {column: int} without zero entries, times the lcm of
    the denominators when the row holds fractions.  An integer row without
    zeros is returned as it is; ``_eliminate`` never modifies its input."""
    if all(type(v) is int and v for v in row.values()):
        return row
    row = {j: Fraction(v) for j, v in row.items() if v}
    d = lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (d // v.denominator) for j, v in row.items()}


def _combine(row, s, a, prow):
    """s * row + a * prow, as a sparse row without zero entries."""
    new = dict(row) if s == 1 else {k: s * v for k, v in row.items()}
    for k, v in prow.items():
        x = new.get(k, 0) + a * v
        if x:
            new[k] = x
        else:
            del new[k]
    return new


def _check_columns(rows, ncols):
    """Raise ValueError naming the first row with a column outside
    0 <= c < ``ncols``."""
    for i, row in enumerate(rows):
        if row:
            low = min(row)
            bad = low if low < 0 else max(row)
            if not 0 <= bad < ncols:
                raise ValueError(f"row {i} has column {bad} outside 0 <= c < {ncols}")


def peel(rows, ncols):
    """Pivot on singletons before elimination, and report their order.

    ``rows`` are {column: int} dicts without zero entries; they are not
    modified.  A row may also hold column ``ncols``, a right-hand side that
    is never pivoted on.  A row with one column left below ``ncols``, c,
    is a pivot: it solves x_c once every other column it holds is solved,
    and column c leaves every other row.  Only columns leave rows, so which
    rows pivot, and in which order, does not depend on the entries.

    Returns (order, rest): ``order`` lists (column, input row index) of the
    pivots in the order found, so each row's other columns pivot before it;
    ``rest`` maps the index of every other row that still has a column
    without pivot to that row on those columns alone (no right-hand side),
    in input order.  A row that is neither has lost all its columns: on a
    right-hand side it is a consistency condition.
    """
    left = [len(row) - (ncols in row) for row in rows]  # columns without pivot
    done = [False] * ncols + [True]  # pivot columns, and the right-hand side
    row_todo = [i for i, k in enumerate(left) if k == 1]
    order = []
    if row_todo:
        at = [[] for _ in range(ncols + 1)]  # column -> the rows nonzero there
        for i, row in enumerate(rows):
            for k in row:
                at[k].append(i)
        while row_todo:
            i = row_todo.pop()
            if left[i] != 1:
                continue
            row = rows[i]
            for c in row:
                if not done[c]:
                    break
            for j in at[c]:
                if left[j]:
                    left[j] -= 1
                    if left[j] == 1:
                        row_todo.append(j)
            done[c] = True
            order.append((c, i))
    rest = {
        i: row if k == len(row) else {c: v for c, v in row.items() if not done[c]}
        for i, (row, k) in enumerate(zip(rows, left))
        if k
    }
    return order, rest


def _eliminate(rows, ncols):
    """Sparse fraction-free elimination, columns left to right.

    ``rows`` are {column: int} dicts without zero entries, every column in
    0 <= c < ``ncols``; they are not modified.  Returns the pivots, (column,
    row) in column order, the row having no nonzero in an earlier pivot
    column.
    """
    # bucket c holds the rows whose first nonzero past the columns already
    # processed is c, i.e. every active row that is nonzero in column c
    buckets = [[] for _ in range(ncols)]
    for row in rows:
        if row:
            buckets[min(row)].append(row)
    pivots = []
    for c in range(ncols):
        bucket = buckets[c]
        if not bucket:
            continue
        prow = min(bucket, key=lambda r: (abs(r[c]), len(r)))
        p = prow[c]
        pivots.append((c, prow))
        for row in bucket:
            if row is prow:
                continue
            f = row[c]
            if p * p == 1:
                new = _combine(row, 1, -f * p, prow)
            else:
                new = _combine(row, p, -f, prow)
            if new:
                # every column left is past c
                g = gcd(*new.values())
                if g > 1:
                    new = {k: v // g for k, v in new.items()}
                buckets[min(new)].append(new)
    return pivots


def rank_q(mat) -> int:
    """Rank over Q of a dense matrix."""
    cols = len(mat[0]) if mat else 0
    rows = [_int_row({j: v for j, v in enumerate(row) if v}) for row in mat]
    return len(_eliminate(rows, cols))


def _substitute(steps, ncols, x):
    """Solve each step's column in turn from its row.

    ``steps`` are (column c, row) pairs, each row's other columns solved
    before it (or free) and c not; a row's right-hand side sits in column
    ``ncols``.  ``x`` holds {column: int} numerators, of the free columns
    at first, and is completed in place over one running denominator d,
    which starts at 1 and grows only when a pivot entry does not divide its
    row's sum.  Returns the integer form (x, d), zero entries left out.

    Each step scales d by the least factor that makes its new entry an
    integer, so d stays the lcm of the denominators of x / d in lowest terms,
    and the gcd of d and the numerators is 1.
    """
    d = 1
    for c, row in steps:
        s = row.get(ncols, 0) * d
        for k, v in row.items():
            if k in x:
                s -= v * x[k]
        if not s:
            continue
        a = row[c]
        m = abs(a) // gcd(s, a)
        if m > 1:
            d *= m
            s *= m
            for k in x:
                x[k] *= m
        x[c] = s // a
    return x, d


def _fractions(x, d, ncols):
    """The Fraction vector of the integer form (x, d)."""
    vec = [Fraction(0)] * ncols
    for k, v in x.items():
        vec[k] = Fraction(v, d)
    return vec


def solve_peeled(rows, ncols, order, rest):
    """The solution of the integer ``rows`` with right-hand sides in column
    ``ncols``, given their ``peel`` (order, rest), or None if inconsistent.

    Each pivot of the peel solves its column from its own row, in order; the
    other rows are checked against that partial solution, those of ``rest``
    on what they have left are eliminated, and free variables are 0.  So
    the same peel serves every right-hand side.  Returns the integer form
    (x, d): {column: int} numerators of the nonzero entries over one
    denominator d > 0.
    """
    x, d = _substitute(((c, rows[i]) for c, i in order), ncols, {})
    pivot_rows = {i for _, i in order}
    left = []
    for i, row in enumerate(rows):
        if i in pivot_rows:
            continue
        r = row.get(ncols, 0) * d
        for k, v in row.items():
            if k in x:
                r -= v * x[k]
        if i in rest:
            # in y = d x, the row says (row on its columns left) . y = r
            left.append({**rest[i], ncols: r} if r else rest[i])
        elif r:
            return None
    pivots = _eliminate(left, ncols + 1)
    if pivots and pivots[-1][0] == ncols:
        return None
    y, e = _substitute(reversed(pivots), ncols, {})
    if e > 1:
        x = {k: v * e for k, v in x.items()}
    x.update(y)
    return x, d * e


def kernel_q(rows, ncols):
    """Basis of the rational kernel of the matrix with the given sparse rows
    and ``ncols`` columns, as integer vectors: one vector per free column j,
    the one read off the reduced row echelon form with free part e_j, times
    the lcm of its denominators.  Its entry j is positive, and the gcd of
    its entries is 1."""
    _check_columns(rows, ncols)
    order, rest = peel([_int_row(row) for row in rows], ncols)
    pivots = _eliminate(list(rest.values()), ncols)
    # a peeled column is 0 in every kernel vector
    pivot_cols = {c for c, _ in order} | {c for c, _ in pivots}
    steps = pivots[::-1]
    basis = []
    for j in range(ncols):
        if j not in pivot_cols:
            # numerators over d, the lcm of the denominators; x_j = 1 is d > 0
            x, _ = _substitute(steps, ncols, {j: 1})
            basis.append([x.get(k, 0) for k in range(ncols)])
    return basis


def solve_q(rows, ncols, rhs):
    """One exact solution x of A x = rhs over Q, or None if inconsistent,
    where A has the given sparse rows and ``ncols`` columns.

    Free variables are 0, so this is the solution read off the reduced row
    echelon form of [A | rhs].
    """
    _check_columns(rows, ncols)
    augmented = [_int_row({**row, ncols: b} if b else row) for row, b in zip(rows, rhs, strict=True)]
    sol = solve_peeled(augmented, ncols, *peel(augmented, ncols))
    return None if sol is None else _fractions(*sol, ncols)


def kernel_z(mat):
    """Basis of the integer kernel lattice of an integer matrix.

    Columns of V matching zero diagonal entries of the Smith form give a
    Z-basis; it also spans the Q-kernel.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    res = smith_normal_form(mat)
    diag = res.diagonal
    basis = []
    for j in range(cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            basis.append([res.V[i][j] for i in range(cols)])
    return basis
