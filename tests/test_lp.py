import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sclkit
from sclkit import lp
from sclkit.lp import LpError, replay_check, solve_lp


def _pairs(row):
    """A dense row as the solver's sorted (column, nonzero coefficient) pairs."""
    return [(j, v) for j, v in enumerate(row) if v]


def _solve(objective, rows, rhs):
    return solve_lp(objective, [_pairs(row) for row in rows], rhs)


def _check(objective, rows, rhs, res):
    replay_check(objective, [_pairs(row) for row in rows], rhs, res)
    return res


def test_basic_minimisation():
    # min x + y  s.t.  x + 2y = 4, x, y >= 0
    res = _solve([1, 1], [[1, 2]], [4])
    assert res.status == "optimal"
    assert res.value == 2
    assert res.solution == [Fraction(0), Fraction(2)]


def test_degenerate_equalities():
    # redundant constraint pair
    res = _solve([1, 0], [[1, 1], [2, 2]], [3, 6])
    assert res.status == "optimal"
    assert res.value == 0


def test_infeasible():
    res = _solve([1], [[1], [1]], [1, 2])
    assert res.status == "infeasible"


def test_unbounded():
    # min -x s.t. x - y = 0: x can grow forever
    res = _solve([-1, 0], [[1, -1]], [0])
    assert res.status == "unbounded"


def test_negative_rhs_normalised():
    res = _solve([1, 1], [[-1, -2]], [-4])
    assert res.status == "optimal"
    assert res.value == 2


def test_exact_fractions():
    # min x s.t. 3x = 1
    res = _solve([1], [[3]], [1])
    assert res.value == Fraction(1, 3)


def test_determinism():
    objective = [3, 1, 4, 1, 5]
    rows = [[1, 1, 0, 2, 0], [0, 1, 1, 0, 1], [2, 0, 1, 1, 0]]
    rhs = [5, 4, 6]
    first = _solve(objective, rows, rhs)
    for _ in range(3):
        again = _solve(objective, rows, rhs)
        assert again.value == first.value
        assert again.solution == first.solution
        assert again.pivots == first.pivots


def test_beale_cycling_example_terminates():
    # Beale (1955): the textbook rule cycles here; the fallback must not
    q = Fraction
    objective = [0, 0, 0, q(-3, 4), 20, q(-1, 2), 6]
    rows = [
        [1, 0, 0, q(1, 4), -8, -1, 9],
        [0, 1, 0, q(1, 2), -12, q(-1, 2), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    rhs = [0, 0, 1]
    res = _check(objective, rows, rhs, _solve(objective, rows, rhs))
    assert res.status == "optimal"
    assert res.value == Fraction(-5, 4)
    assert res.solution == [q(3, 4), 0, 0, 1, 0, 1, 0]


def test_fraction_coefficients_and_rhs():
    # min x + y  s.t.  x/2 + 2y/3 = 5/6,  x/3 - y/4 = 1/12
    q = Fraction
    objective = [1, 1]
    rows = [[q(1, 2), q(2, 3)], [q(1, 3), q(-1, 4)]]
    rhs = [q(5, 6), q(1, 12)]
    res = _check(objective, rows, rhs, _solve(objective, rows, rhs))
    assert res.solution == [q(19, 25), q(17, 25)] and res.value == q(36, 25)
    assert all(isinstance(v, Fraction) for v in res.solution + res.dual)


def test_whole_fraction_coefficients_solve_as_ints():
    # Fractions with denominator 1 still become ints before any pivot
    q = Fraction
    objective, rows = [0, 0, 0], [[2, 0, -2], [0, 0, 0], [1, 0, 1]]
    whole = [[q(v, 2) for v in rows[0]], *rows[1:]]
    base = _solve(objective, rows, [0, 0, 0])
    res = _check(objective, whole, [q(0), 0, 0], _solve(objective, whole, [q(0), 0, 0]))
    assert (res.status, res.solution, res.pivots) == (base.status, base.solution, base.pivots)


def test_redundant_row_gets_dual_zero():
    # the second row is twice the first: its artificial stays basic
    objective, rows, rhs = [1, 2], [[1, 1], [2, 2]], [3, 6]
    res = _check(objective, rows, rhs, _solve(objective, rows, rhs))
    assert res.value == 3
    assert res.dual == [1, 0]
    assert res.certificate()["dual"] == ["1", "0"]


def test_tampered_certificate_raises_under_optimize():
    script = textwrap.dedent(
        """
        from sclkit.lp import LpError, replay_check, solve_lp
        problem = ([1, 2], [[(0, 1), (1, 1)], [(0, 2), (1, 2)]], [3, 6])
        caught = 0
        for field, index, delta in (("solution", 0, 1), ("solution", 0, -4), ("dual", 0, 1), ("dual", 1, -1)):
            res = solve_lp(*problem)
            getattr(res, field)[index] += delta
            try:
                replay_check(*problem, res)
            except LpError:
                caught += 1
        res = solve_lp(*problem)
        res.value += 1
        try:
            replay_check(*problem, res)
        except LpError:
            caught += 1
        print(caught)
        """
    )
    src = str(Path(sclkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["5"]


# -- random programmes --------------------------------------------------------


def _reference_solve(objective, a_rows, b_vals, bland_after):
    """The Fraction tableau with Dantzig's rule, falling back to Bland's rule
    after ``bland_after`` degenerate pivots in a row until the next
    nondegenerate one (``bland_after=0`` is Bland's rule throughout).  The
    artificial columns stay through phase 2 but never enter there, and the
    dual is read off them: y_k = -(reduced cost of artificial k), with the
    sign of row k restored.  Returns (status, solution, dual, pivots, pivots
    chosen by Bland's rule)."""
    m, n = len(a_rows), len(objective)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(a_rows, b_vals)]
    signs = [-1 if r[-1] < 0 else 1 for r in rows]
    rows = [[s * v for v in r] for s, r in zip(signs, rows)]

    def pivot(tab, basis, r, c):
        tab[r] = [v / tab[r][c] for v in tab[r]]
        for i, row in enumerate(tab):
            if i != r and row[c]:
                tab[i] = [a - row[c] * b for a, b in zip(row, tab[r])]
        basis[r] = c

    def phase(tab, basis, ncols):
        count = bland = run = 0
        while True:
            negative = [j for j in range(ncols) if tab[-1][j] < 0]
            if not negative:
                return "optimal", count, bland
            fallback = run >= bland_after
            col = negative[0] if fallback else min(negative, key=lambda j: (tab[-1][j], j))
            cands = [(tab[i][-1] / tab[i][col], basis[i], i) for i in range(len(tab) - 1) if tab[i][col] > 0]
            if not cands:
                return "unbounded", count, bland
            row = min(cands)[2]
            run = run + 1 if tab[row][-1] == 0 else 0
            pivot(tab, basis, row, col)
            count += 1
            bland += fallback

    tab = [r[:n] + [Fraction(int(j == i)) for j in range(m)] + [r[-1]] for i, r in enumerate(rows)]
    tab.append([-sum(r[j] for r in rows) for j in range(n)] + [Fraction(0)] * m + [-sum(r[-1] for r in rows)])
    basis = [n + i for i in range(m)]
    status, p1, b1 = phase(tab, basis, n + m)
    if status != "optimal" or tab[-1][-1] != 0:
        return "infeasible", None, None, p1, b1
    for i in range(m):
        col = next((j for j in range(n) if tab[i][j]), None) if basis[i] >= n else None
        if col is not None:
            pivot(tab, basis, i, col)
    obj = [Fraction(v) for v in objective] + [Fraction(0)] * (m + 1)
    for i, bj in enumerate(basis):
        obj = [a - obj[bj] * b for a, b in zip(obj, tab[i])]
    tab[-1] = obj
    status, p2, b2 = phase(tab, basis, n)
    if status == "unbounded":
        return status, None, None, p1 + p2, b1 + b2
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = tab[i][-1]
    y = [-tab[-1][n + k] * signs[k] for k in range(m)]
    return status, x, y, p1 + p2, b1 + b2


def _primitive_rows(rows, rhs):
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        g = math.gcd(*row, b) or 1
        out_rows.append([v // g for v in row])
        out_rhs.append(b // g)
    return out_rows, out_rhs


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    objective = draw(st.lists(entry, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):  # feasible: b = A x0 for some x0 >= 0
        x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    return objective, rows, rhs


def _assert_matches_references(objective, rows, rhs):
    res = _solve(objective, rows, rhs)
    reference = _reference_solve(objective, rows, rhs, lp.BLAND_AFTER)
    assert (res.status, res.solution, res.dual, res.pivots, res.bland_pivots) == reference
    # Bland's rule alone may reach another optimal vertex, but not another value
    bland_status, bland_x, _, _, _ = _reference_solve(objective, rows, rhs, 0)
    assert res.status == bland_status
    if res.status == "optimal":
        assert res.value == sum(c * v for c, v in zip(objective, bland_x))
        _check(objective, rows, rhs, res)


# rows still basic in an artificial after phase 1: a pivot cancels the
# second row to all zeros, whose gcd is 0, by a unit pivot and by a pivot
# p = 2; and artificial 1 ends basic in row 3, re-entered off its own row
REDUNDANT_ROWS = {
    "zero_row_unit": ([0, 0], [[1, 0], [-1, 0]], [0, 0]),
    "zero_row_non_unit": ([0, 0], [[2, 1], [-2, -1]], [0, 0]),
    "artificial_off_its_row": ([-1, -1, 2], [[2, 1, 1], [-3, 1, -3], [-2, -1, 2], [-1, 3, -1]], [4, -5, -1, 1]),
}


@pytest.mark.parametrize("name", REDUNDANT_ROWS)
def test_redundant_rows_match_the_fraction_tableau(name):
    _assert_matches_references(*REDUNDANT_ROWS[name])


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_random_lps_match_the_fraction_tableau(lp_data):
    objective, rows, rhs = lp_data
    _assert_matches_references(objective, *_primitive_rows(rows, rhs))


@pytest.mark.parametrize("bland_after", [1, 2])
@settings(max_examples=200, deadline=None)
@given(lp_data=small_lps())
def test_bland_fallback_matches_the_fraction_tableau(bland_after, lp_data):
    # small programmes never reach 50 degenerate pivots; a low threshold
    # runs the fallback and its return to Dantzig's rule
    objective, rows, rhs = lp_data
    with mock.patch.object(lp, "BLAND_AFTER", bland_after):
        _assert_matches_references(objective, *_primitive_rows(rows, rhs))


@settings(max_examples=200, deadline=None)
@given(small_lps(), st.data())
def test_row_scaling_leaves_the_solve_unchanged(lp_data, data):
    objective, rows, rhs = lp_data
    base = _solve(objective, rows, rhs)
    i = data.draw(st.integers(0, len(rows) - 1))
    k = data.draw(st.sampled_from([2, 3, Fraction(1, 2), Fraction(5, 3)]))
    scaled_rows = [[k * v for v in row] if r == i else row for r, row in enumerate(rows)]
    scaled_rhs = [k * b if r == i else b for r, b in enumerate(rhs)]
    res = _solve(objective, scaled_rows, scaled_rhs)
    assert (res.status, res.value, res.solution, res.pivots) == (
        base.status,
        base.value,
        base.solution,
        base.pivots,
    )
    if res.status == "optimal":
        _check(objective, scaled_rows, scaled_rhs, res)
        assert res.dual[i] * k == base.dual[i]


def test_float_data_is_refused():
    with pytest.raises(LpError):
        _solve([1, 1], [[0.5, 1]], [2])


# rows that are not sorted (column, nonzero coefficient) pairs over the
# objective's columns, values that are not int or Fraction, and a rhs count
# other than the row count; each beside the valid problem
# min x + y  s.t.  x + 2y = 4
MALFORMED = {
    "more_rhs_than_rows": ([1, 1], [[(0, 1), (1, 2)]], [4, 5]),
    "more_rows_than_rhs": ([1, 1], [[(0, 1)], [(1, 2)]], [4]),
    "column_past_the_objective": ([1, 1], [[(0, 1), (2, 2)]], [4]),
    "negative_column": ([1, 1], [[(-1, 1), (1, 2)]], [4]),
    "columns_descending": ([1, 1], [[(1, 2), (0, 1)]], [4]),
    "column_repeated": ([1, 1], [[(0, 1), (0, 1), (1, 2)]], [4]),
    "zero_coefficient": ([1, 1], [[(0, 1), (1, 0)]], [4]),
    "float_coefficient": ([1, 1], [[(0, 1), (1, 2.0)]], [4]),
    "float_rhs": ([1, 1], [[(0, 1), (1, 2)]], [4.0]),
    "float_objective": ([1.0, 1], [[(0, 1), (1, 2)]], [4]),
    "dense_row": ([1, 1], [[1, 2]], [4]),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_is_refused(name):
    objective, rows, rhs = MALFORMED[name]
    with pytest.raises(LpError):
        solve_lp(objective, rows, rhs)
    res = solve_lp([1, 1], [[(0, 1), (1, 2)]], [4])
    with pytest.raises(LpError):
        replay_check(objective, rows, rhs, res)
