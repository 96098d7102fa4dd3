"""Exact rational linear programming by two-phase primal simplex.

maximize c.x  subject to  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.

c is a dense list, one cost per column.  Each row of A_eq and A_ub is
sparse: a list of (column, value) pairs holding only the nonzero values,
in increasing column order.  The solver and both certificate checkers
take rows in this form only.

Bland's rule everywhere, so runs are deterministic and cycle-free.  The
solver reports Farkas vectors for infeasible systems and dual vectors for
optima; both can be re-verified by plain arithmetic (see the two
certificate checkers at the bottom), which is what downstream consumers do
instead of trusting the pivoting.  Tableau rows are sparse, so a pivot
touches only the rows with a nonzero in the entering column, and only
their nonzeros.  They are also fraction-free (Edmonds 1967; Bareiss
1968): each row is integers over one positive row denominator, so an
update is integer multiply-adds and one gcd, and rationals appear only
where the input is read and the result is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .rational import ZERO, Q

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


def _int_row(entries, rhs) -> tuple:
    """(integer row, denominator) of a sparse row's (column, nonzero rational) pairs and rhs.

    The row is scaled by the lcm of its denominators.  That leaves it
    reduced: for each prime of the lcm, the entry whose denominator holds
    the prime's full power is scaled by a cofactor free of it, and its
    numerator is prime to it.
    """
    den = lcm(rhs.denominator, *(a.denominator for _, a in entries))
    row = {j: a.numerator * (den // a.denominator) for j, a in entries}
    if rhs:
        row[RHS] = rhs.numerator * (den // rhs.denominator)
    return row, den


def _eliminate(row: dict, den: int, prow: dict, c: int) -> tuple:
    """Clear column c of row / den in place with a pivot row whose value at c is one.

    prow's entry pv = prow[c] is then its (positive) denominator, and the
    result (row * pv - row[c] * prow) / (den * pv) is reduced by its gcd.
    """
    f = row[c]
    pv = prow[c]
    if pv != 1:
        for j in row:
            row[j] *= pv
        den *= pv
    for j, a in prow.items():
        v = row.get(j)
        if v is None:
            row[j] = -f * a  # nonzero: both factors are
        else:
            v -= f * a
            if v:
                row[j] = v
            else:
                del row[j]
    return _reduce(row, den)


def _reduce(row: dict, den: int) -> tuple:
    """row / den in place with the gcd of the entries and den divided out."""
    g = gcd(den, *row.values())
    if g != 1:
        for j in row:
            row[j] //= g
        den //= g
    return row, den


class _Tableau:
    """Sparse fraction-free tableau.

    Row r holds the rationals rows[r][j] / dens[r]: integer entries keyed by
    column (nonzeros only, the right-hand side under RHS) over one positive
    denominator.  The objective row is obj / obj_den in the same form.
    """

    def __init__(self, rows, dens, basis):
        self.rows = rows          # each: {column: nonzero integer}, rhs at RHS
        self.dens = dens          # positive integer denominator per row
        self.basis = basis        # basic column per row
        self.obj = {}
        self.obj_den = 1

    def price_out(self, costs):
        # obj[j] / obj_den is the reduced cost of column j (positive: may
        # enter); obj[RHS] / obj_den is minus the objective value.  Price
        # out each basic column by subtracting its cost times its row.
        obj, den = _int_row([(j, a) for j, a in costs if a], ZERO)
        for r, bc in enumerate(self.basis):
            if bc in obj:
                obj, den = _eliminate(obj, den, self.rows[r], bc)
        self.obj, self.obj_den = obj, den

    def price_artificials(self, art0):
        # Phase one maximizes minus the sum of the artificials (the columns
        # from art0 on).  Each starts basic in its own row with value one,
        # so pricing them out leaves the sum of their rows with the
        # artificial entries dropped: one pass over the rows' common
        # denominator.  A rational row has one reduced form, so this is
        # price_out's objective.
        rows, dens = self.rows, self.dens
        art_rows = [r for r, bc in enumerate(self.basis) if bc >= art0]
        den = lcm(*(dens[r] for r in art_rows))
        obj = {}
        for r in art_rows:
            f = den // dens[r]
            for j, a in rows[r].items():
                if j < art0:
                    obj[j] = obj.get(j, 0) + f * a
        self.obj, self.obj_den = _reduce({j: v for j, v in obj.items() if v}, den)

    def run(self, banned=frozenset()):
        rows, basis = self.rows, self.basis
        while True:
            # denominators are positive, so a numerator's sign is its value's
            enter = min((j for j, v in self.obj.items()
                         if v > 0 and j != RHS and j not in banned), default=None)
            if enter is None:
                return OPTIMAL
            # ratio test rhs_r / a_r by cross-multiplication: the row
            # denominators cancel
            leave = None
            for r, row in enumerate(rows):
                a = row.get(enter)
                if a is not None and a > 0:
                    b = row.get(RHS, 0)
                    if leave is None:
                        leave, best_b, best_a = r, b, a
                        continue
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave, best_b, best_a = r, b, a
            if leave is None:
                return UNBOUNDED
            self._pivot(leave, enter)

    def _pivot(self, r, c):
        # row / pivot: the row's denominator cancels, the pivot's magnitude
        # becomes the new one
        row = self.rows[r]
        pv = row[c]
        if pv < 0:
            for j in row:
                row[j] = -row[j]
            pv = -pv
        row, pv = _reduce(row, pv)
        rows, dens = self.rows, self.dens
        dens[r] = pv
        for rr, other in enumerate(rows):
            if rr != r and c in other:
                rows[rr], dens[rr] = _eliminate(other, dens[rr], row, c)
        if c in self.obj:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, row, c)
        self.basis[r] = c

    def objective_value(self):
        return Q(-self.obj.get(RHS, 0), self.obj_den)

    def solution(self, nvars):
        x = [ZERO] * nvars
        for r, bc in enumerate(self.basis):
            if bc < nvars:
                x[bc] = Q(self.rows[r].get(RHS, 0), self.dens[r])
        return x


def _purge_artificial_basis(tab: _Tableau, art_cols) -> None:
    """Pivot leftover artificials out of the basis after phase one.

    A zero-level artificial left basic is not caught by banning it from
    entering: a later pivot with a nonzero coefficient in its row drives
    it positive and the reported point breaks the original equality.
    Every such row has zero rhs, so pivoting on any nonzero structural
    or slack entry is a degenerate pivot and keeps the point feasible.
    Rows with no such entry are redundant; their artificial can never
    change value, so they stay.
    """
    art_set = frozenset(art_cols)
    for r in range(len(tab.basis)):
        if tab.basis[r] not in art_set:
            continue
        j = min((j for j in tab.rows[r] if j != RHS and j not in art_set), default=None)
        if j is not None:
            tab._pivot(r, j)


def _duals(tab: _Tableau, probes, sign, probe_cost) -> list:
    """Row r's multiplier sign_r * (cost - reduced cost) of its probe column.

    A row's probe is its artificial, else its slack (an identity column of
    the starting basis); probe_cost gives the artificials' phase-one cost.
    """
    obj, den = tab.obj, tab.obj_den
    return [Q(s * (probe_cost.get(col, 0) * den - obj.get(col, 0)), den)
            for col, s in zip(probes, sign)]


def _start(n: int, A_eq, b_eq, A_ub, b_ub) -> tuple:
    """(tableau, row signs, first artificial column) of the starting basis.

    Columns: the n structural variables, one slack per <= row, then one
    artificial per row without a ready identity column (an equality row,
    or a <= row negated for its negative rhs).  Each row's basic column
    is its slack or its artificial.
    """
    m_eq, m_ub = len(A_eq), len(A_ub)
    rows, dens = [], []
    for row, b in zip(A_eq, b_eq, strict=True):
        row, den = _int_row(row, b)
        rows.append(row)
        dens.append(den)
    for j, (row, b) in enumerate(zip(A_ub, b_ub, strict=True)):
        row, den = _int_row(row, b)
        row[n + j] = den
        rows.append(row)
        dens.append(den)
    sign = []
    for row in rows:
        if row.get(RHS, 0) < 0:
            for j in row:
                row[j] = -row[j]
            sign.append(-1)
        else:
            sign.append(1)

    art0 = ncols = n + m_ub
    basis = []
    for r, row in enumerate(rows):
        if r >= m_eq and sign[r] == 1:
            basis.append(n + (r - m_eq))  # its slack is a ready identity column
        else:
            row[ncols] = dens[r]
            basis.append(ncols)
            ncols += 1
    return _Tableau(rows, dens, basis), sign, art0


def solve_lp(c: Sequence[Q], A_eq, b_eq, A_ub, b_ub) -> LPResult:
    n, m_eq = len(c), len(A_eq)
    tab, sign, art0 = _start(n, A_eq, b_eq, A_ub, b_ub)
    probes = list(tab.basis)  # each row's dual probe: its artificial, else its slack
    art_cost = {col: -1 for col in probes if col >= art0}

    if art_cost:
        tab.price_artificials(art0)
        tab.run()
        if tab.obj.get(RHS):
            # phase one ends short of zero; Farkas from the probe columns
            y = _duals(tab, probes, sign, art_cost)
            return LPResult(status=INFEASIBLE, dual_eq=y[:m_eq], dual_ub=y[m_eq:])
        _purge_artificial_basis(tab, art_cost)

    tab.price_out(enumerate(c))
    if tab.run(banned=art_cost.keys()) == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    y = _duals(tab, probes, sign, {})
    return LPResult(status=OPTIMAL, x=tab.solution(n), value=tab.objective_value(),
                    dual_eq=y[:m_eq], dual_ub=y[m_eq:])


def _combine(A_eq, b_eq, A_ub, b_ub, y_eq, y_ub) -> tuple:
    """({column: y^T A}, y^T b) summed pair by pair over the LP's own rows.

    A column no row touches is absent, so its combination is zero.  Zero
    multipliers add nothing and are skipped.
    """
    cols = {}
    rhs = ZERO
    for A, b, y in ((A_eq, b_eq, y_eq), (A_ub, b_ub, y_ub)):
        for row, bi, yi in zip(A, b, y, strict=True):
            if not yi:
                continue
            for j, a in row:
                s = cols.get(j)
                cols[j] = yi * a if s is None else s + yi * a
            if bi:
                rhs += yi * bi
    return cols, rhs


def check_infeasibility_certificate(A_eq, b_eq, A_ub, b_ub, y_eq, y_ub) -> bool:
    """Farkas check: y_ub >= 0, combined columns >= 0, combined rhs < 0."""
    if any(v < ZERO for v in y_ub):
        return False
    cols, rhs = _combine(A_eq, b_eq, A_ub, b_ub, y_eq, y_ub)
    return all(s >= ZERO for s in cols.values()) and rhs < ZERO


def check_bound_certificate(c, A_eq, b_eq, A_ub, b_ub, y_eq, y_ub, bound) -> bool:
    """Weak-duality check that max c.x <= bound over the feasible set.

    Every column, of c or of a row, needs its combination at least its
    cost (zero where c has none).
    """
    if any(v < ZERO for v in y_ub):
        return False
    cols, rhs = _combine(A_eq, b_eq, A_ub, b_ub, y_eq, y_ub)
    cost = dict(enumerate(c))
    return all(cols.get(j, ZERO) >= cost.get(j, ZERO) for j in cost.keys() | cols.keys()) \
        and rhs <= bound
