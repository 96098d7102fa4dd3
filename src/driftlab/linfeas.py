"""Exact rational linear programming by two-phase primal simplex.

maximize c.x  subject to  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.

Bland's rule everywhere, so runs are deterministic and cycle-free.  The
solver reports Farkas vectors for infeasible systems and dual vectors for
optima; both can be re-verified by plain arithmetic (see the two
certificate checkers at the bottom), which is what downstream consumers do
instead of trusting the pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .rational import ONE, ZERO, Q

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: Optional[list] = None
    value: Optional[Q] = None
    dual_eq: Optional[list] = None  # multipliers for equality rows (free sign)
    dual_ub: Optional[list] = None  # multipliers for <= rows (nonnegative)


class _Tableau:
    def __init__(self, rows, basis, ncols):
        self.rows = rows          # each: ncols coefficients + rhs
        self.basis = basis        # basic column per row
        self.ncols = ncols
        self.obj = [ZERO] * (ncols + 1)

    def price_out(self, costs):
        # self.obj[j] is the reduced cost of column j (positive: may enter);
        # self.obj[-1] is minus the objective value.  Price out each basic
        # column by subtracting its cost times its row.
        self.obj = list(costs) + [ZERO]
        for r, bc in enumerate(self.basis):
            f = self.obj[bc]
            if f != ZERO:
                row = self.rows[r]
                self.obj = [o - f * a for o, a in zip(self.obj, row)]

    def reduced(self, j):
        return self.obj[j]

    def run(self, banned=frozenset()):
        rows = self.rows
        while True:
            enter = None
            for j in range(self.ncols):
                if j in banned:
                    continue
                if self.obj[j] > ZERO:
                    enter = j
                    break
            if enter is None:
                return OPTIMAL
            leave = None
            best = None
            for r, row in enumerate(rows):
                a = row[enter]
                if a > ZERO:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (ratio == best and self.basis[r] < self.basis[leave]):
                        best = ratio
                        leave = r
            if leave is None:
                return UNBOUNDED
            self._pivot(leave, enter)

    def _pivot(self, r, c):
        row = self.rows[r]
        pv = row[c]
        row = [a / pv for a in row]
        self.rows[r] = row
        for rr in range(len(self.rows)):
            if rr != r:
                f = self.rows[rr][c]
                if f != ZERO:
                    self.rows[rr] = [a - f * b for a, b in zip(self.rows[rr], row)]
        f = self.obj[c]
        if f != ZERO:
            self.obj = [a - f * b for a, b in zip(self.obj, row)]
        self.basis[r] = c

    def objective_value(self):
        return -self.obj[-1]

    def solution(self, nvars):
        x = [ZERO] * self.ncols
        for r, bc in enumerate(self.basis):
            x[bc] = self.rows[r][-1]
        return x[:nvars]


def _purge_artificial_basis(tab: _Tableau, art_cols: dict) -> None:
    """Pivot leftover artificials out of the basis after phase one.

    A zero-level artificial left basic is not caught by banning it from
    entering: a later pivot with a nonzero coefficient in its row drives
    it positive and the reported point breaks the original equality.
    Every such row has zero rhs, so pivoting on any nonzero structural
    or slack entry is a degenerate pivot and keeps the point feasible.
    Rows with no such entry are redundant; their artificial can never
    change value, so they stay.
    """
    art_set = frozenset(art_cols.values())
    for r in range(len(tab.basis)):
        if tab.basis[r] not in art_set:
            continue
        row = tab.rows[r]
        for j in range(tab.ncols):
            if j not in art_set and row[j] != ZERO:
                tab._pivot(r, j)
                break


def solve_lp(c: Sequence[Q], A_eq, b_eq, A_ub, b_ub) -> LPResult:
    n = len(c)
    m_eq, m_ub = len(A_eq), len(A_ub)
    m = m_eq + m_ub
    nslack = m_ub
    # assemble rows: structural vars, slacks, then rhs; artificials appended later
    raw = []
    sign = []
    for i in range(m_eq):
        raw.append(list(A_eq[i]) + [ZERO] * nslack + [b_eq[i]])
        sign.append(ONE)
    for j in range(m_ub):
        s = [ZERO] * nslack
        s[j] = ONE
        raw.append(list(A_ub[j]) + s + [b_ub[j]])
        sign.append(ONE)
    for r in range(m):
        if raw[r][-1] < ZERO:
            raw[r] = [-a for a in raw[r]]
            sign[r] = -ONE

    basis = [-1] * m
    art_cols = {}
    ncols = n + nslack
    for r in range(m):
        sc = None
        if r >= m_eq and sign[r] == ONE:
            sc = n + (r - m_eq)  # its slack is a ready identity column
        if sc is not None:
            basis[r] = sc
        else:
            art_cols[r] = ncols
            for rr in range(m):
                raw[rr].insert(ncols, ONE if rr == r else ZERO)
            basis[r] = ncols
            ncols += 1

    tab = _Tableau(raw, basis, ncols)

    if art_cols:
        costs1 = [ZERO] * ncols
        for col in art_cols.values():
            costs1[col] = -ONE
        tab.price_out(costs1)
        tab.run()
        if tab.objective_value() != ZERO:
            # Farkas: from reduced costs of the probe column of every row
            y = []
            for r in range(m):
                col = art_cols.get(r)
                if col is not None:
                    yr = -ONE - tab.reduced(col)
                else:
                    yr = -tab.reduced(basis_probe_col(n, m_eq, r))
                y.append(sign[r] * yr)
            return LPResult(status=INFEASIBLE, dual_eq=y[:m_eq], dual_ub=y[m_eq:])
        _purge_artificial_basis(tab, art_cols)

    banned = frozenset(art_cols.values())
    costs2 = [ZERO] * ncols
    for j in range(n):
        costs2[j] = c[j]
    tab.price_out(costs2)
    status = tab.run(banned=banned)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    y = []
    for r in range(m):
        col = art_cols.get(r)
        if col is None:
            col = basis_probe_col(n, m_eq, r)
        y.append(sign[r] * (-tab.reduced(col)))
    return LPResult(status=OPTIMAL, x=tab.solution(n), value=tab.objective_value(),
                    dual_eq=y[:m_eq], dual_ub=y[m_eq:])


def basis_probe_col(n: int, m_eq: int, row: int) -> int:
    """Slack column belonging to an inequality row (its dual probe)."""
    return n + (row - m_eq)


def check_infeasibility_certificate(A_eq, b_eq, A_ub, b_ub, y_eq, y_ub) -> bool:
    """Farkas check: y_ub >= 0, combined columns >= 0, combined rhs < 0."""
    if any(v < ZERO for v in y_ub):
        return False
    n = len(A_eq[0]) if A_eq else (len(A_ub[0]) if A_ub else 0)
    for j in range(n):
        s = sum((y_eq[i] * A_eq[i][j] for i in range(len(A_eq))), ZERO) \
            + sum((y_ub[i] * A_ub[i][j] for i in range(len(A_ub))), ZERO)
        if s < ZERO:
            return False
    rhs = sum((y_eq[i] * b_eq[i] for i in range(len(A_eq))), ZERO) \
        + sum((y_ub[i] * b_ub[i] for i in range(len(A_ub))), ZERO)
    return rhs < ZERO


def check_bound_certificate(c, A_eq, b_eq, A_ub, b_ub, y_eq, y_ub, bound) -> bool:
    """Weak-duality check that max c.x <= bound over the feasible set."""
    if any(v < ZERO for v in y_ub):
        return False
    n = len(c)
    for j in range(n):
        s = sum((y_eq[i] * A_eq[i][j] for i in range(len(A_eq))), ZERO) \
            + sum((y_ub[i] * A_ub[i][j] for i in range(len(A_ub))), ZERO)
        if s < c[j]:
            return False
    rhs = sum((y_eq[i] * b_eq[i] for i in range(len(A_eq))), ZERO) \
        + sum((y_ub[i] * b_ub[i] for i in range(len(A_ub))), ZERO)
    return rhs <= bound
