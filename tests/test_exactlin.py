import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sclkit
from sclkit.exactlin import (
    _eliminate,
    _int_row,
    smith_normal_form,
    check_snf,
    det_int,
    rank_q,
    kernel_q,
    kernel_z,
    solve_q,
    mat_mul,
)


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in a]


# -- dense Fraction Gauss-Jordan: the reference the sparse routines must match --


def dense_rref(mat):
    """Reduced row echelon form over Q; returns (rref matrix, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_rank_q(mat):
    return len(dense_rref(mat)[1])


def dense_kernel_q(mat):
    cols = len(mat[0]) if mat else 0
    if cols == 0:
        return []
    red, pivots = dense_rref(mat)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def dense_solve_q(mat, rhs):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    red, pivots = dense_rref([[*mat[i], rhs[i]] for i in range(rows)])
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def integral(vec):
    """A rational vector times the lcm of its denominators: the integer
    form in which ``kernel_q`` returns a kernel vector."""
    d = math.lcm(*(Fraction(x).denominator for x in vec))
    return [int(x * d) for x in vec]


def sparse(mat):
    """The sparse rows of a dense matrix and its column count: the form
    ``kernel_q`` and ``solve_q`` take."""
    return [{j: v for j, v in enumerate(row) if v} for row in mat], len(mat[0]) if mat else 0


def minors_gcd(mat, k):
    """gcd of all k x k minors; independent oracle for invariant factors."""
    rows = range(len(mat))
    cols = range(len(mat[0]) if mat else 0)
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = [[mat[i][j] for j in ci] for i in ri]
            g = math.gcd(g, abs(det_int(sub)))
    return g


def invariant_factors(res):
    """The nonzero diagonal entries of a Smith normal form."""
    return [d for d in res.diagonal if d]


def invariant_factors_oracle(mat):
    """d_k = gcd of k-minors divided by gcd of (k-1)-minors."""
    r = rank_q(mat)
    facs = []
    prev = 1
    for k in range(1, r + 1):
        g = minors_gcd(mat, k)
        facs.append(g // prev)
        prev = g
    return facs


def test_snf_hand_example():
    m = [[2, 4], [6, 8]]
    res = smith_normal_form(m)
    check_snf(m, res)
    assert res.diagonal == [2, 4]
    assert invariant_factors_oracle(m) == [2, 4]


def test_snf_zero_matrix():
    m = [[0, 0, 0], [0, 0, 0]]
    res = smith_normal_form(m)
    check_snf(m, res)
    assert res.diagonal == [0, 0]


def test_snf_identity_fixed_by_pivot_rule():
    m = [[1, 0], [0, 1]]
    res = smith_normal_form(m)
    check_snf(m, res)
    assert res.D == m
    assert res.U == [[1, 0], [0, 1]]
    assert res.V == [[1, 0], [0, 1]]


def test_snf_empty_and_degenerate():
    for m in ([], [[]], [[5]], [[0]]):
        res = smith_normal_form(m)
        if m and m[0]:
            check_snf(m, res)


def test_snf_random_small_against_minor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(m)
        check_snf(m, res)
        assert invariant_factors(res) == invariant_factors_oracle(m)


def test_snf_random_medium_invariants():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(m)
        check_snf(m, res)
        assert res.rank == rank_q(m)


def test_tampered_snf_raises_under_optimize():
    # each case breaks one invariant and keeps the ones checked before it;
    # check_snf must name it with asserts stripped
    script = textwrap.dedent(
        """
        from sclkit.exactlin import SnfError, SnfResult, check_snf, smith_normal_form
        eye = [[1, 0], [0, 1]]
        res = smith_normal_form([[2, 4], [6, 8]])
        cases = [
            ("product", [[2, 4], [6, 8]], res.U, [[2, 0], [0, 5]], res.V),
            ("unimodular", [[0]], [[2]], [[0]], [[1]]),
            ("diagonal", [[2, 1], [0, 4]], eye, [[2, 1], [0, 4]], eye),
            ("negative", [[-1, 0], [0, 1]], eye, [[-1, 0], [0, 1]], eye),
            ("chain", [[2, 0], [0, 3]], eye, [[2, 0], [0, 3]], eye),
        ]
        for name, m, u, d, v in cases:
            try:
                check_snf(m, SnfResult(u, d, v))
            except SnfError as err:
                print(name, str(err).replace(" ", "_"))
        """
    )
    src = str(Path(sclkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == [
        "product", "U*M*V_!=_D",
        "unimodular", "U_not_unimodular",
        "diagonal", "D_not_diagonal",
        "negative", "negative_invariant_factor",
        "chain", "divisibility_chain_broken",
    ]


def test_kernels_agree_over_q():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        kq = kernel_q(*sparse(m))
        kz = kernel_z(m)
        assert len(kq) == len(kz) == cols - rank_q(m)
        for vec in kz:
            assert all(x == 0 for x in mat_vec(m, vec))
        for vec in kq:
            assert all(x == 0 for x in mat_vec(m, vec))


def test_solve_q_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        b = mat_vec(m, x)
        sol = solve_q(*sparse(m), b)
        assert sol is not None
        assert mat_vec(m, sol) == b


def test_solve_q_inconsistent():
    assert solve_q([{0: 1, 1: 1}, {0: 1, 1: 1}], 2, [0, 1]) is None


def test_kernel_vectors_are_primitive_integer_vectors():
    # the RREF vector (-3/2, 1, 0) times 2, and (-1/2, 0, 1) times 2; a
    # Fraction row gives the same kernel as its integer multiple
    for row in ({0: 2, 1: 3, 2: 1}, {0: 1, 1: Fraction(3, 2), 2: Fraction(1, 2)}):
        kernel = kernel_q([row], 3)
        assert kernel == [[-3, 2, 0], [-1, 0, 2]]
        assert all(type(x) is int for vec in kernel for x in vec)
    # x0 = 2 x1: the RREF vector is integral already
    assert kernel_q([{0: 4, 1: -8}], 2) == [[2, 1]]


def test_an_empty_matrix_keeps_its_column_count():
    # no nonzero entry: every column is free, and a solution has free variables 0
    assert kernel_q([], 2) == [[1, 0], [0, 1]]
    assert solve_q([{}, {}], 3, [0, 0]) == [0, 0, 0]
    assert solve_q([{}], 1, [Fraction(1, 2)]) is None


@pytest.mark.parametrize(
    "call, row, column",
    [
        (lambda: kernel_q([{0: 1}, {-1: 2, 0: 1}], 2), 1, -1),
        (lambda: kernel_q([{2: Fraction(1, 2)}], 2), 0, 2),
        (lambda: kernel_q([{0: 1}], 0), 0, 0),
        # column 2 is where solve_q puts the right-hand side
        (lambda: solve_q([{0: 1}, {1: 1}, {0: 1, 2: 1}], 2, [1, 1, 1]), 2, 2),
        (lambda: solve_q([{-3: 1}], 2, [0]), 0, -3),
        (lambda: kernel_q([{0: 1, 5: 1}], 3), 0, 5),
        # singletons outside the matrix: the peel would index them
        (lambda: kernel_q([{0: 1}, {5: 1}], 2), 1, 5),
        (lambda: solve_q([{0: 1}, {7: 2}], 3, [1, 1]), 1, 7),
        (lambda: solve_q([{0: 1}, {4: -1}], 2, [0, 0]), 1, 4),
        (lambda: kernel_q([{-2: 1}], 2), 0, -2),
    ],
)
def test_a_column_outside_the_matrix_is_named(call, row, column):
    with pytest.raises(ValueError, match=rf"^row {row} has column {column} outside 0 <= c < \d+$"):
        call()


def coords_in_basis(basis, vec):
    """Coordinates of ``vec`` in the span of ``basis`` (None if outside)."""
    if not basis:
        return [] if all(x == 0 for x in vec) else None
    rows = [{j: b[i] for j, b in enumerate(basis) if b[i]} for i in range(len(vec))]
    return solve_q(rows, len(basis), vec)


def test_coords_in_basis():
    basis = [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(1), Fraction(1)]]
    v = [Fraction(3), Fraction(-2), Fraction(4)]
    coords = coords_in_basis(basis, v)
    assert coords == [Fraction(3), Fraction(-2)]
    assert coords_in_basis(basis, [Fraction(0), Fraction(0), Fraction(1)]) is None


def test_mat_mul_shapes():
    a = [[1, 2], [3, 4], [5, 6]]
    b = [[1, 0, 1], [0, 1, 1]]
    assert mat_mul(a, b) == [[1, 2, 3], [3, 4, 7], [5, 6, 11]]


# -- sparse elimination against the dense oracle --------------------------------


def entries(fractions):
    ints = st.integers(-5, 5)
    if not fractions:
        return st.one_of(st.just(0), ints)
    return st.one_of(st.just(0), ints, st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    """Random int or Fraction matrices, with forced zero rows and columns."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    flat = draw(st.lists(entries(draw(st.booleans())), min_size=rows * cols, max_size=rows * cols))
    m = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)) if rows else ():
        m[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)) if cols else ():
        for row in m:
            row[j] = 0
    return m


def vectors(n):
    return st.lists(entries(True), min_size=n, max_size=n)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.booleans(), st.data())
def test_sparse_elimination_matches_dense_gauss_jordan(m, backwards, data):
    # the solvers read sparse rows, int or Fraction, in any key order
    rows, cols = sparse(m)
    if backwards:
        rows = [dict(reversed(row.items())) for row in rows]
    before = [dict(row) for row in rows]
    assert rank_q(m) == dense_rank_q(m)
    kernel = kernel_q(rows, cols)
    assert kernel == [integral(vec) for vec in dense_kernel_q(m)]
    assert all(type(x) is int for vec in kernel for x in vec)
    # an arbitrary right-hand side (often inconsistent) and a consistent one
    rhs = data.draw(vectors(len(m)))
    assert solve_q(rows, cols, rhs) == dense_solve_q(m, rhs)
    x = data.draw(vectors(cols))
    rhs = mat_vec(m, x) if cols else [0] * len(m)
    sol = solve_q(rows, cols, rhs)
    assert sol == dense_solve_q(m, rhs)
    assert sol is not None and mat_vec(m, sol) == rhs
    assert rows == before  # input untouched


# -- the peel against elimination alone ------------------------------------------


def reference_kernel_q(rows, ncols):
    """``kernel_q`` by elimination alone, with Fraction back substitution."""
    pivots = _eliminate([_int_row(row) for row in rows], ncols)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for c, row in reversed(pivots):
            s = sum(v * vec[k] for k, v in row.items() if k != c and vec[k])
            if s:
                vec[c] = -s / row[c]
        basis.append(vec)
    return basis


def reference_solve_q(rows, ncols, rhs):
    """``solve_q`` by elimination alone, with Fraction back substitution."""
    augmented = [_int_row({**row, ncols: b} if b else row) for row, b in zip(rows, rhs, strict=True)]
    pivots = _eliminate(augmented, ncols + 1)
    if pivots and pivots[-1][0] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for c, row in reversed(pivots):
        s = row.get(ncols, 0) - sum(v * x[k] for k, v in row.items() if k != c and k < ncols and x[k])
        x[c] = Fraction(s) / row[c]
    return x


@st.composite
def peelable(draw, max_cols=8):
    """Sparse integer rows with planted singleton chains: row t of a chain
    is nonzero in its own column and, at random, in columns of earlier rows
    of the chain, so peeling one singleton exposes the next.  Entries are
    units and non-units; extra rows are random; the rows are shuffled."""
    ncols = draw(st.integers(1, max_cols))
    entry = st.sampled_from((1, -1, 1, -1, 2, -2, 3, -5))
    order = draw(st.permutations(range(ncols)))
    chain = order[: draw(st.integers(0, ncols))]
    rows = []
    for t, c in enumerate(chain):
        earlier = draw(st.lists(st.sampled_from(chain[:t]), max_size=2)) if t else []
        rows.append({k: draw(entry) for k in [*earlier, c]})
    for _ in range(draw(st.integers(0, 4))):
        support = draw(st.lists(st.integers(0, ncols - 1), max_size=4))
        rows.append({k: draw(entry) for k in support})
    # a singleton repeated with another value makes some right-hand sides
    # inconsistent
    if chain and draw(st.booleans()):
        (c, a), = rows[0].items()
        rows.append({c: 2 * a})
    return draw(st.permutations(rows)), ncols


@settings(max_examples=300, deadline=None)
@given(peelable(), st.data())
def test_peeling_matches_elimination_alone(matrix, data):
    rows, ncols = matrix
    before = [dict(row) for row in rows]
    assert kernel_q(rows, ncols) == [integral(vec) for vec in reference_kernel_q(rows, ncols)]
    # an arbitrary right-hand side, often inconsistent, and a consistent one
    rhs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    assert solve_q(rows, ncols, rhs) == reference_solve_q(rows, ncols, rhs)
    x = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=ncols, max_size=ncols))
    rhs = [sum(v * x[k] for k, v in row.items()) for row in rows]
    sol = solve_q(rows, ncols, rhs)
    assert sol == reference_solve_q(rows, ncols, rhs) and sol is not None
    assert rows == before  # input untouched


def test_a_singleton_chain_is_peeled_before_elimination(monkeypatch):
    # a triangular chain with a non-unit pivot: every row is peeled in turn
    rows = [{0: 2, 1: 1, 2: -1}, {1: 1, 2: 3}, {2: -1}]
    eliminated = []
    eliminate = sclkit.exactlin._eliminate

    def recording_eliminate(rows, ncols):
        eliminated.append(list(rows))
        return eliminate(rows, ncols)

    monkeypatch.setattr(sclkit.exactlin, "_eliminate", recording_eliminate)
    assert kernel_q(rows, 3) == []
    assert solve_q(rows, 3, [1, 2, 1]) == [Fraction(-5, 2), 5, -1]
    assert eliminated == [[], []]
