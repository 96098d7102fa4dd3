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
                    alive_atoms, horizon_or_last_tick)
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
    """The deflator feasibility program, deterministically ordered, in linfeas's sparse rows.

    Returns (c, A_eq, b_eq, A_ub, b_ub, columns, z_atoms): columns is
    _z_columns' table and z_atoms the (tick, atom) of each Z column, in
    column order; the gap variable is the last column.  Per alive atom
    (k, b) and component (the constant one first, then each of S), the
    equality row is sum_{i in b} prob_i (Z_k S_k - Z_{k-1} S_{k-1})(i) = 0,
    with the known Z_0 = 1 moved to the rhs.  Then one positivity row
    gap <= Z per Z column, and the cap gap <= 1.
    """
    var_index: dict = {}
    for k in range(1, filt.K + 1):
        for b in filt.at(k).blocks:
            if horizon.alive_block(b, k):
                var_index[(k, b)] = len(var_index)

    columns = _z_columns(filt, horizon, var_index)
    nz = len(var_index)
    prob, values = space.prob, S.values
    # carried[c][i] = prob_i * S_{k-1}(i)[c], as the rows at tick k - 1 formed
    # it: ticks ascend, and an outcome alive at k >= 2 was alive at k - 1, so
    # each product is formed once per (outcome, tick, component).
    carried = [[None] * space.n for _ in range(S.dim)]
    A_eq, b_eq = [], []
    for k, b, _ in alive_atoms(filt, horizon):
        for comp in range(S.dim + 1):
            acc = {}
            rhs = ZERO
            carry = carried[comp - 1] if comp else None
            for i in b:
                if comp:
                    w_now = prob[i] * values[i][k][comp - 1]
                    w_prev = carry[i] if k > 1 else prob[i] * values[i][0][comp - 1]
                    carry[i] = w_now
                else:
                    w_now = w_prev = prob[i]
                col = columns[i][k]  # i is alive at k, so Z_k has a column
                v = acc.get(col)
                acc[col] = w_now if v is None else v + w_now
                col = columns[i][k - 1]
                if col is None:  # Z_0 = 1
                    rhs += w_prev
                else:
                    v = acc.get(col)
                    acc[col] = -w_prev if v is None else v - w_prev
            A_eq.append(sorted((j, v) for j, v in acc.items() if v))
            b_eq.append(rhs)

    A_ub = [[(v, -ONE), (nz, ONE)] for v in range(nz)]
    A_ub.append([(nz, ONE)])
    b_ub = [ZERO] * nz + [ONE]
    c = [ZERO] * nz + [ONE]
    return c, A_eq, b_eq, A_ub, b_ub, columns, var_index


def _row_descriptors(filt: Filtration, dim: int, horizon: StoppingTime, z_atoms) -> tuple:
    """(rows_eq, rows_ub): what each row of _build_lp states, in row order."""
    rows_eq = [{"kind": "martingale" if comp == 0 else "deflated-asset",
                "tick": k,
                "atom": sorted(b),
                "component": comp - 1 if comp else None}
               for k, b, _ in alive_atoms(filt, horizon) for comp in range(dim + 1)]
    rows_ub = [{"kind": "positivity", "tick": k, "atom": sorted(b)} for k, b in z_atoms]
    rows_ub.append({"kind": "gap-cap"})
    return rows_eq, rows_ub


def _proved_head(lp: tuple, y_eq, y_ub, bound) -> Optional[dict]:
    """The status, reason and gap_bound that y proves, if linfeas's checkers accept it, else None.

    y is checked over the rows of lp, _build_lp's output: as a Farkas vector
    if bound is None, else as a bound certificate for gap <= bound <= 0.
    """
    c, A_eq, b_eq, A_ub, b_ub, _, _ = lp
    if len(y_eq) != len(A_eq) or len(y_ub) != len(A_ub):
        return None
    if bound is None and check_infeasibility_certificate(A_eq, b_eq, A_ub, b_ub, y_eq, y_ub):
        return {"status": "no-deflator", "reason": "martingale-system-infeasible"}
    if bound is not None and bound <= ZERO and \
            check_bound_certificate(c, A_eq, b_eq, A_ub, b_ub, y_eq, y_ub, bound):
        return {"status": "no-deflator", "reason": "positivity-unreachable",
                "gap_bound": rat_str(bound)}
    return None


def _no_deflator_certificate(filt: Filtration, dim: int, horizon: StoppingTime, lp: tuple,
                             y_eq, y_ub, bound) -> Optional[dict]:
    """_proved_head's head with y's multipliers and lp's row descriptors, or None."""
    cert = _proved_head(lp, y_eq, y_ub, bound)
    if cert is None:
        return None
    cert["multipliers_eq"] = [rat_str(v) for v in y_eq]
    cert["multipliers_ub"] = [rat_str(v) for v in y_ub]
    cert["rows_eq"], cert["rows_ub"] = _row_descriptors(filt, dim, horizon, lp[6])
    return cert


def lp_deflator_oracle(space: SampleSpace, filt: Filtration, S: Process,
                       horizon: Optional[StoppingTime] = None) -> OracleResult:
    horizon = horizon_or_last_tick(space, filt, horizon)
    lp = _build_lp(space, filt, S, horizon)
    res = solve_lp(*lp[:5])
    if res.status == UNBOUNDED:  # impossible: the gap is capped
        raise InternalInvariant("gap program cannot be unbounded")
    if res.status != INFEASIBLE and res.value > ZERO:
        Z = Process(1, tuple(tuple((ONE if col is None else res.x[col],) for col in row)
                             for row in lp[5]))  # Z through _build_lp's column table
        if not check_deflator(space, filt, S, Z, horizon):
            raise InternalInvariant("oracle deflator fails its recheck")
        cert = {"status": "deflator", "gap": rat_str(res.value)}
        return OracleResult(feasible=True, deflator=Z, gap=res.value, certificate=cert)
    cert = _no_deflator_certificate(filt, S.dim, horizon, lp, res.dual_eq, res.dual_ub,
                                    None if res.status == INFEASIBLE else res.value)
    if cert is None:
        raise InternalInvariant("no-deflator certificate fails its recheck")
    return OracleResult(feasible=False, deflator=None, gap=res.value, certificate=cert)


def arbitrage_certificate(space: SampleSpace, filt: Filtration, S: Process,
                          horizon: StoppingTime, k: int, c: frozenset) -> dict:
    """The no-deflator certificate, in closed form, of a scalar S null on c before k
    that jumps by a_e < 0 on each child e of the pre(k)-atom c.

    With a* = max_e a_e, multipliers -1 and 1/a* on (k, c)'s martingale and
    S rows weigh each Z_k(e) by P(e) (a_e / a* - 1) >= 0 against the rhs
    -P(c): a Farkas vector at k = 1, where Z_0 = 1.  For k >= 2, -1/P(c),
    1/(P(c) a*) and 1 on the positivity row gap <= Z_{k-1} bound the gap
    by 0.  A vector that fails its check (as every one does where a* = 0)
    raises InternalInvariant.
    """
    lp = _build_lp(space, filt, S, horizon)
    _, A_eq, _, A_ub, _, columns, _ = lp
    r, kids = next((r, kids) for r, (j, b, kids) in enumerate(alive_atoms(filt, horizon))
                   if (j, b) == (k, c))
    row, a_star = 2 * r, max(a for (a,) in S.child_jumps(k, kids))
    y_eq, y_ub = [ZERO] * len(A_eq), [ZERO] * len(A_ub)
    scale = ONE if k == 1 else ONE / space.mass(c)
    y_eq[row], y_eq[row + 1] = -scale, scale / a_star if a_star else ZERO
    if k > 1:
        y_ub[columns[min(c)][k - 1]] = ONE
    cert = _no_deflator_certificate(filt, 1, horizon, lp, y_eq, y_ub, None if k == 1 else ZERO)
    if cert is None:
        raise InternalInvariant("arbitrage certificate fails its recheck", tick=k, atom=sorted(c))
    return cert


def check_deflator(space: SampleSpace, filt: Filtration, S: Process, Z: Process,
                   horizon: Optional[StoppingTime] = None) -> bool:
    """Plain-arithmetic recheck that Z is a positive deflator for S on the horizon.

    Checked: Z is scalar, with one row per outcome and one value per tick
    (False for any other shape); Z_0 = 1 and Z > 0; Z adapted (on every at(k)-atom, each
    outcome's Z at k equals that at the atom's smallest outcome); Z frozen
    after the horizon (each outcome's Z keeps its value at T_i); Z and Z*S
    martingales up to the horizon.
    """
    horizon = horizon_or_last_tick(space, filt, horizon)
    if Z.dim != 1 or len(Z.values) != space.n or \
            any(len(row) != filt.K + 1 for row in Z.values):
        return False
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
    for k, b, _ in alive_atoms(filt, horizon):
        for comp in range(S.dim + 1):
            tot = ZERO
            for i in b:
                s_now = ONE if comp == 0 else S.at(i, k)[comp - 1]
                s_prev = ONE if comp == 0 else S.at(i, k - 1)[comp - 1]
                tot += space.prob[i] * (Z.at(i, k)[0] * s_now - Z.at(i, k - 1)[0] * s_prev)
            if tot != ZERO:
                return False
    return True


def verify_no_deflator(space: SampleSpace, filt: Filtration, S: Process,
                       horizon: Optional[StoppingTime], certificate: dict) -> bool:
    """Re-verify a no-deflator certificate by rebuilding the program.

    False unless its multipliers (lists of rat-parsable entries, one per
    row) and, for positivity-unreachable, a rat-parsable gap_bound prove
    the status and reason it states.
    """
    if not isinstance(certificate, dict):
        return False
    y_eq, y_ub = certificate.get("multipliers_eq"), certificate.get("multipliers_ub")
    if not isinstance(y_eq, list) or not isinstance(y_ub, list):
        return False
    try:
        y_eq, y_ub = [rat(v) for v in y_eq], [rat(v) for v in y_ub]
        bound = (rat(certificate["gap_bound"])
                 if certificate.get("reason") == "positivity-unreachable" else None)
    except (KeyError, ValueError, ZeroDivisionError):
        return False
    horizon = horizon_or_last_tick(space, filt, horizon)
    head = _proved_head(_build_lp(space, filt, S, horizon), y_eq, y_ub, bound)
    return head is not None and all(head[f] == certificate.get(f) for f in ("status", "reason"))
