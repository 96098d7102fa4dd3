from hypothesis import given
from hypothesis import strategies as st

from driftlab.linalg import (
    min_norm_solve,
    solve_linear,
    vec_dot,
)
from driftlab.rational import ZERO, Q

small = st.integers(min_value=-3, max_value=3).map(Q)


def mat_vec(A, x):
    return [vec_dot(row, x) for row in A]


def test_solve_linear_golden():
    A = [[Q(1), Q(1)], [Q(1), Q(-1)]]
    assert solve_linear(A, [Q(2), ZERO]) == [Q(1), Q(1)]


def test_solve_linear_inconsistent():
    A = [[Q(1), Q(1)], [Q(1), Q(1)]]
    assert solve_linear(A, [ZERO, Q(1)]) is None


def test_solve_linear_underdetermined_picks_a_solution():
    x = solve_linear([[Q(1), Q(1)]], [Q(2)])
    assert x is not None and x[0] + x[1] == Q(2)


def test_min_norm_golden():
    V = [[Q(2), ZERO], [ZERO, ZERO]]
    assert min_norm_solve(V, [Q(2), ZERO]) == [Q(1), ZERO]
    assert min_norm_solve(V, [ZERO, Q(1)]) is None


def _norm2(v):
    return vec_dot(v, v)


@given(st.lists(st.lists(small, min_size=2, max_size=2), min_size=1, max_size=3),
       st.lists(small, min_size=2, max_size=2))
def test_min_norm_solves_and_minimizes(rows, t):
    # symmetric consistent system: V = A^T A, b = V t
    V = [[sum((r[i] * r[j] for r in rows), ZERO) for j in range(2)] for i in range(2)]
    b = mat_vec(V, t)
    x = min_norm_solve(V, b)
    assert x is not None
    assert mat_vec(V, x) == list(b)
    assert _norm2(x) <= _norm2(t)
    # minimizer lives in the row space, which is V's range for symmetric V
    assert solve_linear(V, x) is not None

