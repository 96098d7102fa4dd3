from hypothesis import given
from hypothesis import strategies as st

from driftlab.linfeas import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _start,
    check_bound_certificate,
    check_infeasibility_certificate,
    solve_lp,
)
from driftlab.rational import ONE, ZERO, Q

coef = st.integers(min_value=-3, max_value=3).map(Q)


def sparse(rows):
    """Dense rows as linfeas takes them: (column, value) pairs of the nonzeros."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in rows]


def test_bounded_golden():
    res = solve_lp([ONE, ONE], [], [], sparse([[ONE, ONE]]), [ONE])
    assert res.status == OPTIMAL
    assert res.value == ONE
    assert res.x[0] + res.x[1] == ONE


def test_equality_golden():
    res = solve_lp([ONE, ZERO], sparse([[ONE, Q(-1)]]), [ZERO], sparse([[ONE, ONE]]), [Q(2)])
    assert res.status == OPTIMAL
    assert res.value == ONE
    assert res.x == [ONE, ONE]


def test_infeasible_farkas():
    A_eq, b_eq = [[ONE, ONE]], [Q(-1)]
    res = solve_lp([ONE, ZERO], sparse(A_eq), b_eq, [], [])
    assert res.status == INFEASIBLE
    assert check_infeasibility_certificate(sparse(A_eq), b_eq, [], [], res.dual_eq, res.dual_ub)


def test_unbounded():
    res = solve_lp([ONE], [], [], [], [])
    assert res.status == UNBOUNDED


def test_leftover_artificial_regression():
    """A zero-rhs equality with only negative coefficients must still bind.

    Phase one leaves its artificial basic at level zero; before the purge
    step a later pivot drove the artificial positive and the solver
    reported g = 1 while the equality forces z0 = 0, hence g = 0.
    """
    c = [ZERO, ONE]                      # maximize g
    A_eq = [[Q(-3, 289), ZERO]]          # -3/289 * z0 = 0
    b_eq = [ZERO]
    A_ub = [[Q(-1), ONE], [ZERO, ONE]]   # g <= z0, g <= 1
    b_ub = [ZERO, ONE]
    res = solve_lp(c, sparse(A_eq), b_eq, sparse(A_ub), b_ub)
    assert res.status == OPTIMAL
    assert res.value == ZERO
    assert res.x == [ZERO, ZERO]
    assert sum(a * x for a, x in zip(A_eq[0], res.x)) == b_eq[0]
    assert check_bound_certificate(c, sparse(A_eq), b_eq, sparse(A_ub), b_ub,
                                   res.dual_eq, res.dual_ub, res.value)


def test_redundant_zero_row_is_harmless():
    A_eq = [[ONE, ZERO], [ZERO, ZERO]]
    res = solve_lp([ONE, ONE], sparse(A_eq), [Q(2), ZERO], sparse([[ZERO, ONE]]), [Q(3)])
    assert res.status == OPTIMAL
    assert res.x == [Q(2), Q(3)]
    assert res.value == Q(5)


def test_beale_cycling_lp_golden():
    """Beale's LP cycles under the textbook largest-coefficient rule.

    Bland's rule must terminate on it, at the known optimum and duals.
    """
    c = [Q(3, 4), Q(-20), Q(1, 2), Q(-6)]
    A_ub = [[Q(1, 4), Q(-8), Q(-1), Q(9)],
            [Q(1, 2), Q(-12), Q(-1, 2), Q(3)],
            [ZERO, ZERO, ONE, ZERO]]
    b_ub = [ZERO, ZERO, ONE]
    res = solve_lp(c, [], [], sparse(A_ub), b_ub)
    assert res.status == OPTIMAL
    assert res.value == Q(5, 4)
    assert res.x == [ONE, ZERO, ONE, ZERO]
    assert res.dual_eq == []
    assert res.dual_ub == [ZERO, Q(3, 2), Q(5, 4)]
    assert check_bound_certificate(c, [], [], sparse(A_ub), b_ub,
                                   res.dual_eq, res.dual_ub, res.value)


def _feasible(x, A_eq, b_eq, A_ub, b_ub):
    if any(v < ZERO for v in x):
        return False
    for row, b in zip(A_eq, b_eq):
        if sum((a * v for a, v in zip(row, x)), ZERO) != b:
            return False
    for row, b in zip(A_ub, b_ub):
        if sum((a * v for a, v in zip(row, x)), ZERO) > b:
            return False
    return True


def _assert_certified(c, A_eq, b_eq, A_ub, b_ub, box_bound):
    n = len(c)
    res = solve_lp(c, sparse(A_eq), b_eq, sparse(A_ub), b_ub)
    if res.status == OPTIMAL:
        assert _feasible(res.x, A_eq, b_eq, A_ub, b_ub)
        assert sum((ci * xi for ci, xi in zip(c, res.x)), ZERO) == res.value
        assert check_bound_certificate(c, sparse(A_eq), b_eq, sparse(A_ub), b_ub,
                                       res.dual_eq, res.dual_ub, res.value)
    elif res.status == INFEASIBLE:
        assert check_infeasibility_certificate(sparse(A_eq), b_eq, sparse(A_ub), b_ub,
                                               res.dual_eq, res.dual_ub)
    else:
        assert res.status == UNBOUNDED
        # unbounded implies feasible: boxing every variable far above any
        # basic solution of these small systems must yield an optimum
        box = [[ONE if j == i else ZERO for j in range(n)] for i in range(n)]
        boxed = solve_lp(c, sparse(A_eq), b_eq, sparse(list(A_ub) + box),
                         list(b_ub) + [box_bound] * n)
        assert boxed.status == OPTIMAL


def _draw_lp(data, entry, max_n, max_eq, max_ub):
    n = data.draw(st.integers(min_value=1, max_value=max_n), label="n")
    m_eq = data.draw(st.integers(min_value=0, max_value=max_eq), label="m_eq")
    m_ub = data.draw(st.integers(min_value=0, max_value=max_ub), label="m_ub")
    row = st.lists(entry, min_size=n, max_size=n)
    c = data.draw(row, label="c")
    A_eq = data.draw(st.lists(row, min_size=m_eq, max_size=m_eq), label="A_eq")
    b_eq = data.draw(st.lists(entry, min_size=m_eq, max_size=m_eq), label="b_eq")
    A_ub = data.draw(st.lists(row, min_size=m_ub, max_size=m_ub), label="A_ub")
    b_ub = data.draw(st.lists(entry, min_size=m_ub, max_size=m_ub), label="b_ub")
    return c, A_eq, b_eq, A_ub, b_ub


@given(st.data())
def test_random_lps_certified(data):
    _assert_certified(*_draw_lp(data, coef, 4, 2, 3), box_bound=Q(10**6))


# one_of takes the zero branch about half the time (and coef can draw zero
# too), so pivots often cancel entries to zero
sparse_coef = st.one_of(st.just(ZERO), coef)


@given(st.data())
def test_random_sparse_lps_certified(data):
    # A vertex coordinate is a ratio of integer minors of order <= 8 with
    # entries in [-3, 3]; Hadamard's bound (3 sqrt 8)^8 caps its numerator.
    _assert_certified(*_draw_lp(data, sparse_coef, 8, 3, 5), box_bound=Q(3**8 * 8**4))


# Q(p, q) with p in [-3, 3] and q in {1, 2, 3, 5, 7}, zero about half the time
rational_coef = st.one_of(st.just(ZERO), st.builds(
    Q, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2, 3, 5, 7))))


@given(st.data())
def test_random_rational_lps_certified(data):
    # solve_lp scales each row by the lcm of its denominators, at most
    # lcm(2, 3, 5, 7) = 210, so the integer system (slacks included) has
    # entries of magnitude at most 3 * 210 = 630.  A vertex coordinate is
    # a ratio of integer minors of order <= 5 whose denominator is at least
    # one; Hadamard's bound (630 sqrt 5)^5 < 630^5 * 5^3 caps its numerator.
    _assert_certified(*_draw_lp(data, rational_coef, 4, 2, 3),
                      box_bound=Q(630**5 * 5**3))


@given(st.data())
def test_phase_one_objective_is_price_out_of_the_artificials(data):
    """Phase one's one-pass objective is price_out over the artificial costs.

    On the starting tableau, the sum of the artificial rows over their
    common denominator, artificial entries dropped and reduced by one gcd,
    has the same numerators and denominator as pricing out each
    artificial's cost -1 in turn.
    """
    c, A_eq, b_eq, A_ub, b_ub = _draw_lp(data, rational_coef, 5, 3, 4)
    tab, _, art0 = _start(len(c), sparse(A_eq), b_eq, sparse(A_ub), b_ub)
    tab.price_out([(col, -1) for col in tab.basis if col >= art0])
    priced = dict(tab.obj), tab.obj_den
    tab.price_artificials(art0)
    assert (tab.obj, tab.obj_den) == priced


def _dense_combination(n, A_eq, b_eq, A_ub, b_ub, y_eq, y_ub):
    cols = [sum((y_eq[i] * A_eq[i][j] for i in range(len(A_eq))), ZERO)
            + sum((y_ub[i] * A_ub[i][j] for i in range(len(A_ub))), ZERO)
            for j in range(n)]
    rhs = sum((y_eq[i] * b_eq[i] for i in range(len(A_eq))), ZERO) \
        + sum((y_ub[i] * b_ub[i] for i in range(len(A_ub))), ZERO)
    return cols, rhs


@given(st.data())
def test_certificate_checkers_match_dense_reference(data):
    c, A_eq, b_eq, A_ub, b_ub = _draw_lp(data, sparse_coef, 4, 3, 3)
    y_eq = data.draw(st.lists(sparse_coef, min_size=len(A_eq), max_size=len(A_eq)),
                     label="y_eq")
    y_ub = data.draw(st.lists(sparse_coef, min_size=len(A_ub), max_size=len(A_ub)),
                     label="y_ub")
    bound = data.draw(coef, label="bound")
    signs_ok = all(v >= ZERO for v in y_ub)
    n = len(A_eq[0]) if A_eq else (len(A_ub[0]) if A_ub else 0)
    cols, rhs = _dense_combination(n, A_eq, b_eq, A_ub, b_ub, y_eq, y_ub)
    assert check_infeasibility_certificate(sparse(A_eq), b_eq, sparse(A_ub), b_ub,
                                           y_eq, y_ub) == \
        (signs_ok and all(s >= ZERO for s in cols) and rhs < ZERO)
    cols, rhs = _dense_combination(len(c), A_eq, b_eq, A_ub, b_ub, y_eq, y_ub)
    assert check_bound_certificate(c, sparse(A_eq), b_eq, sparse(A_ub), b_ub,
                                   y_eq, y_ub, bound) == \
        (signs_ok and all(s >= cj for s, cj in zip(cols, c)) and rhs <= bound)
