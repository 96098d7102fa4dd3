"""Exact rational linear programming by two-phase primal simplex.

maximize c.x  subject to  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.

Bland's rule everywhere, so runs are deterministic and cycle-free.  The
solver reports Farkas vectors for infeasible systems and dual vectors for
optima; both can be re-verified by plain arithmetic (see the two
certificate checkers at the bottom), which is what downstream consumers do
instead of trusting the pivoting.  Tableau rows are sparse, so a pivot
touches only the rows with a nonzero in the entering column, and only
their nonzeros.
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


RHS = -1  # key of the right-hand side in a sparse row


def _sub_scaled(dst: dict, f, src: dict) -> None:
    """dst -= f * src over src's nonzeros, dropping entries that cancel."""
    g = -f
    for j, a in src.items():
        v = dst.get(j)
        if v is None:
            dst[j] = g * a  # nonzero: both factors are
        else:
            v += g * a
            if v:
                dst[j] = v
            else:
                del dst[j]


class _Tableau:
    def __init__(self, rows, basis):
        self.rows = rows          # each: {column: nonzero coefficient}, rhs at RHS
        self.basis = basis        # basic column per row
        self.obj = {}

    def price_out(self, costs):
        # self.obj[j] is the reduced cost of column j (positive: may enter);
        # self.obj[RHS] is minus the objective value.  Price out each basic
        # column by subtracting its cost times its row.
        self.obj = dict(costs)
        for r, bc in enumerate(self.basis):
            f = self.obj.get(bc)
            if f is not None:
                _sub_scaled(self.obj, f, self.rows[r])

    def reduced(self, j):
        return self.obj.get(j, ZERO)

    def run(self, banned=frozenset()):
        rows = self.rows
        while True:
            enter = min((j for j, v in self.obj.items()
                         if j != RHS and j not in banned and v > ZERO), default=None)
            if enter is None:
                return OPTIMAL
            leave = None
            best = None
            for r, row in enumerate(rows):
                a = row.get(enter)
                if a is not None and a > ZERO:
                    ratio = row.get(RHS, ZERO) / a
                    if best is None or ratio < best or (ratio == best and self.basis[r] < self.basis[leave]):
                        best = ratio
                        leave = r
            if leave is None:
                return UNBOUNDED
            self._pivot(leave, enter)

    def _pivot(self, r, c):
        pv = self.rows[r][c]
        row = {j: a / pv for j, a in self.rows[r].items()}
        self.rows[r] = row
        for rr, other in enumerate(self.rows):
            if rr != r:
                f = other.get(c)
                if f is not None:
                    _sub_scaled(other, f, row)
        f = self.obj.get(c)
        if f is not None:
            _sub_scaled(self.obj, f, row)
        self.basis[r] = c

    def objective_value(self):
        return -self.obj.get(RHS, ZERO)

    def solution(self, nvars):
        x = [ZERO] * nvars
        for r, bc in enumerate(self.basis):
            if bc < nvars:
                x[bc] = self.rows[r].get(RHS, ZERO)
        return x


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
        j = min((j for j in tab.rows[r] if j != RHS and j not in art_set), default=None)
        if j is not None:
            tab._pivot(r, j)


def _sparse_row(coeffs, rhs) -> dict:
    row = {j: a for j, a in enumerate(coeffs) if a}
    if rhs:
        row[RHS] = rhs
    return row


def solve_lp(c: Sequence[Q], A_eq, b_eq, A_ub, b_ub) -> LPResult:
    n = len(c)
    m_eq, m_ub = len(A_eq), len(A_ub)
    m = m_eq + m_ub
    # rows: structural vars, then one slack per <= row; artificials added below
    rows = [_sparse_row(A_eq[i], b_eq[i]) for i in range(m_eq)]
    for j in range(m_ub):
        row = _sparse_row(A_ub[j], b_ub[j])
        row[n + j] = ONE
        rows.append(row)
    sign = []
    for row in rows:
        if row.get(RHS, ZERO) < ZERO:
            for j in row:
                row[j] = -row[j]
            sign.append(-ONE)
        else:
            sign.append(ONE)

    basis = [-1] * m
    art_cols = {}
    ncols = n + m_ub
    for r in range(m):
        if r >= m_eq and sign[r] == ONE:
            basis[r] = n + (r - m_eq)  # its slack is a ready identity column
        else:
            art_cols[r] = ncols
            rows[r][ncols] = ONE
            basis[r] = ncols
            ncols += 1

    tab = _Tableau(rows, basis)

    if art_cols:
        tab.price_out({col: -ONE for col in art_cols.values()})
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
    tab.price_out({j: cj for j, cj in enumerate(c) if cj})
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
