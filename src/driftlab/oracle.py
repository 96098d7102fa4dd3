"""Independent no-arbitrage oracle by exact linear feasibility.

Decides whether a strictly positive process Z with Z_0 = 1 exists making Z
and Z*S martingales on [0, horizon], by solving one global linear program
over the atom values of Z with an auxiliary gap variable: the gap is the
floor under all Z values, capped at 1 and maximized; a strictly positive
deflator exists iff the optimal gap is positive.

This module deliberately knows nothing about connectors, representations,
or drift multipliers: it imports only the basis layer and the LP solver,
so agreement with the structure-condition route downstream is a genuine
cross-check, not a tautology.  Certificates are re-verifiable with plain
conditional arithmetic (see check_deflator / verify_no_deflator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .basis import (Filtration, InternalInvariant, Process, SampleSpace, StoppingTime,
                    alive_atoms)
from .linfeas import (INFEASIBLE, UNBOUNDED, check_bound_certificate,
                      check_infeasibility_certificate, solve_lp)
from .rational import ONE, ZERO, Q, rat, rat_str


@dataclass
class OracleResult:
    feasible: bool
    deflator: Optional[Process]
    gap: Optional[Q]
    certificate: dict


def _z_columns(filt: Filtration, horizon: StoppingTime, var_index: dict) -> list:
    """columns[i][k]: the column holding outcome i's Z at tick k, or None where Z is 1.

    Z is frozen after the horizon, so its value at k is the one at
    t = min(k, T_i).  The horizon is a stopping time, so the at(t)-atom of
    i is alive at t and has a column; at t = 0, Z_0 = 1.
    """
    columns = []
    for i, T in enumerate(horizon.values):
        last = filt.K if T is None else min(filt.K, T)
        row = [None] + [var_index[(t, filt.at(t).block_of(i))] for t in range(1, last + 1)]
        columns.append(row + row[-1:] * (filt.K - last))
    return columns


def _build_lp(space: SampleSpace, filt: Filtration, S: Process, horizon: StoppingTime):
    """Rows and columns of the deflator feasibility program, deterministically ordered."""
    var_index: dict = {}
    for k in range(1, filt.K + 1):
        for b in filt.at(k).blocks:
            if horizon.alive_block(b, k):
                var_index[(k, b)] = len(var_index)

    columns = _z_columns(filt, horizon, var_index)
    nz = len(var_index)
    A_eq, b_eq, eq_desc = [], [], []
    for k, b in alive_atoms(filt, horizon):
        for comp in range(S.dim + 1):
            row = [ZERO] * (nz + 1)  # last column is the gap variable
            rhs = ZERO
            for i in b:
                w_now = space.prob[i] * (ONE if comp == 0 else S.at(i, k)[comp - 1])
                w_prev = space.prob[i] * (ONE if comp == 0 else S.at(i, k - 1)[comp - 1])
                col = columns[i][k]
                if col is not None:
                    row[col] += w_now
                else:
                    rhs -= w_now
                col = columns[i][k - 1]
                if col is not None:
                    row[col] -= w_prev
                else:
                    rhs += w_prev
            A_eq.append(row)
            b_eq.append(rhs)
            eq_desc.append({
                "kind": "martingale" if comp == 0 else "deflated-asset",
                "tick": k,
                "atom": sorted(b),
                "component": comp - 1 if comp else None,
            })

    A_ub, b_ub, ub_desc = [], [], []
    for (k, b), v in var_index.items():
        row = [ZERO] * (nz + 1)
        row[v] = -ONE
        row[nz] = ONE
        A_ub.append(row)
        b_ub.append(ZERO)
        ub_desc.append({"kind": "positivity", "tick": k, "atom": sorted(b)})
    cap = [ZERO] * (nz + 1)
    cap[nz] = ONE
    A_ub.append(cap)
    b_ub.append(ONE)
    ub_desc.append({"kind": "gap-cap"})

    c = [ZERO] * (nz + 1)
    c[nz] = ONE
    return c, A_eq, b_eq, A_ub, b_ub, columns, eq_desc, ub_desc


def _deflator_from_solution(columns: list, x) -> Process:
    """Z from the program's solution x, read through _build_lp's column table."""
    return Process(1, tuple(tuple((ONE if col is None else x[col],) for col in row)
                            for row in columns))


def lp_deflator_oracle(space: SampleSpace, filt: Filtration, S: Process,
                       horizon: Optional[StoppingTime] = None) -> OracleResult:
    if horizon is None:
        horizon = StoppingTime.constant(space.n, filt.K)
    c, A_eq, b_eq, A_ub, b_ub, columns, eq_desc, ub_desc = _build_lp(space, filt, S, horizon)
    res = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
    if res.status == UNBOUNDED:  # impossible: the gap is capped
        raise InternalInvariant("gap program cannot be unbounded")
    if res.status == INFEASIBLE:
        if not check_infeasibility_certificate(A_eq, b_eq, A_ub, b_ub, res.dual_eq, res.dual_ub):
            raise InternalInvariant("infeasibility certificate fails its recheck")
        cert = {
            "status": "no-deflator",
            "reason": "martingale-system-infeasible",
            "multipliers_eq": [rat_str(v) for v in res.dual_eq],
            "multipliers_ub": [rat_str(v) for v in res.dual_ub],
            "rows_eq": eq_desc,
            "rows_ub": ub_desc,
        }
        return OracleResult(feasible=False, deflator=None, gap=None, certificate=cert)
    if res.value <= ZERO:
        if not check_bound_certificate(c, A_eq, b_eq, A_ub, b_ub, res.dual_eq, res.dual_ub,
                                       res.value):
            raise InternalInvariant("gap bound certificate fails its recheck")
        cert = {
            "status": "no-deflator",
            "reason": "positivity-unreachable",
            "gap_bound": rat_str(res.value),
            "multipliers_eq": [rat_str(v) for v in res.dual_eq],
            "multipliers_ub": [rat_str(v) for v in res.dual_ub],
            "rows_eq": eq_desc,
            "rows_ub": ub_desc,
        }
        return OracleResult(feasible=False, deflator=None, gap=res.value, certificate=cert)
    Z = _deflator_from_solution(columns, res.x)
    if not check_deflator(space, filt, S, Z, horizon):
        raise InternalInvariant("oracle deflator fails its recheck")
    cert = {"status": "deflator", "gap": rat_str(res.value)}
    return OracleResult(feasible=True, deflator=Z, gap=res.value, certificate=cert)


def check_deflator(space: SampleSpace, filt: Filtration, S: Process, Z: Process,
                   horizon: Optional[StoppingTime] = None) -> bool:
    """Plain-arithmetic recheck that Z is a positive deflator for S on the horizon.

    Checked: Z_0 = 1 and Z > 0; Z adapted (on every at(k)-atom, each
    outcome's Z at k equals that at the atom's smallest outcome); Z frozen
    after the horizon (each outcome's Z keeps its value at T_i); Z and Z*S
    martingales up to the horizon.
    """
    if horizon is None:
        horizon = StoppingTime.constant(space.n, filt.K)
    for i in range(space.n):
        if Z.at(i, 0)[0] != ONE:
            return False
        for k in range(filt.K + 1):
            if Z.at(i, k)[0] <= ZERO:
                return False
    for k in range(filt.K + 1):
        for c in filt.at(k).blocks:
            z = Z.at(min(c), k)
            if any(Z.at(i, k) != z for i in c):
                return False
    for i, t in enumerate(horizon.values):
        if t is not None and any(Z.at(i, k) != Z.at(i, t) for k in range(t + 1, filt.K + 1)):
            return False
    for k, b in alive_atoms(filt, horizon):
        for comp in range(S.dim + 1):
            tot = ZERO
            for i in b:
                s_now = ONE if comp == 0 else S.at(i, k)[comp - 1]
                s_prev = ONE if comp == 0 else S.at(i, k - 1)[comp - 1]
                tot += space.prob[i] * (Z.at(i, k)[0] * s_now - Z.at(i, k - 1)[0] * s_prev)
            if tot != ZERO:
                return False
    return True


# The fields each no-deflator reason of lp_deflator_oracle carries.
_NO_DEFLATOR_FIELDS = {
    "martingale-system-infeasible": ("multipliers_eq", "multipliers_ub"),
    "positivity-unreachable": ("gap_bound", "multipliers_eq", "multipliers_ub"),
}


def verify_no_deflator(space: SampleSpace, filt: Filtration, S: Process,
                       horizon: Optional[StoppingTime], certificate: dict) -> bool:
    """Re-verify an infeasibility certificate by rebuilding the program.

    False for anything but a no-deflator certificate with one of
    lp_deflator_oracle's two reasons and the fields that reason carries.
    """
    fields = _NO_DEFLATOR_FIELDS.get(certificate.get("reason"))
    if certificate.get("status") != "no-deflator" or fields is None or \
            any(f not in certificate for f in fields):
        return False
    if horizon is None:
        horizon = StoppingTime.constant(space.n, filt.K)
    c, A_eq, b_eq, A_ub, b_ub, *_ = _build_lp(space, filt, S, horizon)
    y_eq = [rat(v) for v in certificate["multipliers_eq"]]
    y_ub = [rat(v) for v in certificate["multipliers_ub"]]
    if len(y_eq) != len(A_eq) or len(y_ub) != len(A_ub):
        return False
    if certificate["reason"] == "martingale-system-infeasible":
        return check_infeasibility_certificate(A_eq, b_eq, A_ub, b_ub, y_eq, y_ub)
    bound = rat(certificate["gap_bound"])
    return bound <= ZERO and check_bound_certificate(c, A_eq, b_eq, A_ub, b_ub, y_eq, y_ub, bound)
