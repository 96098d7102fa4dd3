"""Structure conditions, connectors, and the enlargement viability verdict.

A connector for an asset family S on a filtered basis is a scalar process D
with D_0 = 0 that is a martingale up to the horizon, has every jump
strictly below one there, and whose jump covariance against the martingale
part of each component reproduces that component's compensator increment.
The stochastic exponential of -D is then a strictly positive deflator
making D-deflated prices martingales, and conversely.  The search for D
solves one small program per alive atom, in closed form wherever its
optimum has one: only an asset of dimension two or more that drifts on
the atom, and a scalar tie at the extreme jump beside a zero jump, go to
the simplex, whose vertex on a tied face the pinned results fix.  An atom
with one child has the single measure q = (1), so its program and its row
reduce to a flatness test: it blocks D where S moves on it, and D does
not jump on it where S stays.

On an enlarged basis the same machinery transfers.  Given a base
connector D with martingale weights q_h = p_h (1 - jump_h(D)), the
enlarged connector Y jumps on every enlarged child inside the base child h
of an alive enlarged atom by 1 - q_h / pbar_h: Jacod's conditional density
pbar_h / p_h tilts the weights q_h, and the jump equals
(jump(D) + phi.jump(W)) / (1 + phi.jump(W)) for the drift multiplier row
phi.  Y is built from that closed form.  Y = K . (W - drift(W)), the
factors' Wt, holds for the integrand K that solve_accessible_K gives, a
closed-form inverse applied to r_h = 2^k (pbar_h - q_h); K is solved only
where a caller reads it.  The verdict that
every base-viable asset stays viable in the enlarged filtration reduces to
a child-support condition between the two filtrations; when it fails, a
single localized component of the driving process already loses viability.
That component is the witness asset.  Its no-deflator certificate is
written in closed form over the oracle's rows and re-checked before it is
emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .basis import (Filtration, Process, SampleSpace, StoppingTime, alive_atoms,
                    horizon_or_last_tick)
from .calculus import doleans_exp, is_adapted, is_martingale, jump_mean, stop
from .enlargement import (DriftFactors, EnlargedBasis, SupportReport, _multinomial_solve,
                          _transfer_mismatch, check_condition_support, check_positivity,
                          solve_factors)
from .errors import (ConnectorInvalid, DimensionMismatch, InternalInvariant, NotAdapted,
                     NotAMartingale, SupportConditionFailed)
from .linalg import vec_dot
from .linfeas import INFEASIBLE, solve_lp
from .oracle import arbitrage_certificate
from .rational import ONE, ZERO
from .representation import (RepresentationProcess, build_representation, fired_component,
                             padded)


def _atom_rows_violation(rows) -> Optional[dict]:
    """None if the atoms' jump tables pass the connector rows, else a violation record.

    Each row is (k, b, kids, p, d_jumps, s_jumps) for one alive left-limit
    atom b at tick k: its children, their conditional probabilities, the
    jumps of D on them (None where D does not jump on the atom) and, when
    checking a connector for S, the jumps of S (None otherwise).  Rows: D
    is a martingale on the atom, every jump of D is below one and
    sum_h q_h s_h = 0 with the weights q_h = p_h (1 - jump_h(D)) of
    find_structure_connector.  Zero jumps pass the first two, so an atom
    without D jumps is checked only on sum_h p_h s_h = 0.  A failed
    martingale row is reported at once, the first big jump (by outcome,
    then tick) and the first failed identity (by tick, atom, component)
    only when nothing graver turns up.
    """
    big_jump = identity = None
    for k, b, kids, p, d_jumps, s_jumps in rows:
        if d_jumps is not None:
            if jump_mean(p, d_jumps)[0] != ZERO:
                return {"reason": "not-martingale", "tick": k, "atom": sorted(b)}
            for kid, (dj,) in zip(kids, d_jumps):
                if dj >= ONE and (big_jump is None or (min(kid), k) < big_jump):
                    big_jump = (min(kid), k)
        if s_jumps is None or big_jump is not None or identity is not None:
            continue
        q = p if d_jumps is None else [ph * (ONE - dj) for ph, (dj,) in zip(p, d_jumps)]
        failed = [c for c, mean in enumerate(jump_mean(q, s_jumps)) if mean != ZERO]
        if failed:
            identity = {"reason": "identity-failed", "tick": k,
                        "atom": sorted(b), "component": failed[0]}
    if big_jump is not None:
        return {"reason": "jump-at-least-one", "outcome": big_jump[0], "tick": big_jump[1]}
    return identity


def _connector_violation(space: SampleSpace, filt: Filtration, D: Process,
                         horizon: StoppingTime, S: Optional[Process] = None) -> Optional[dict]:
    """None if D can make a deflator on [0, horizon], else a violation record.

    These are exactly the properties that make exp(-D) stopped at the
    horizon a positive deflator: scalar, adapted, zero start, a martingale
    up to the horizon, and every jump there strictly below one.  Given S,
    D must also be a connector for it: on every alive atom the jump
    covariance of D against each component of S equals that component's
    conditional jump mean.  The last three properties are the rows of
    _atom_rows_violation, read off D and S on each alive atom's children.
    """
    if D.dim != 1:
        return {"reason": "not-scalar"}
    if not is_adapted(filt, D):
        return {"reason": "not-adapted"}
    for i in range(space.n):
        if D.at(i, 0)[0] != ZERO:
            return {"reason": "nonzero-start", "outcome": i}

    def rows():
        for k, b, kids in alive_atoms(filt, horizon):
            yield (k, b, kids, space.split(kids), D.child_jumps(k, kids),
                   None if S is None else S.child_jumps(k, kids))

    return _atom_rows_violation(rows())


def _path_violation(filt: Filtration, D: Process, table: dict) -> Optional[dict]:
    """None if D is scalar, null at 0 and jumps by table[(k, at(k)-atom)] (0 if absent).

    One pass over every outcome and tick.  Such a D is adapted, and frozen
    wherever the table has no entry.
    """
    if D.dim != 1:
        return {"reason": "not-scalar"}
    for i, row in enumerate(D.values):
        if row[0][0] != ZERO:
            return {"reason": "nonzero-start", "outcome": i}
    for k in range(1, filt.K + 1):
        for c in filt.at(k).blocks:
            dj = table.get((k, c), ZERO)
            for i in c:
                if D.values[i][k][0] - D.values[i][k - 1][0] != dj:
                    return {"reason": "jump-off-table", "outcome": i, "tick": k}
    return None


def is_structure_connector(space: SampleSpace, filt: Filtration, S: Process, D: Process,
                           horizon: Optional[StoppingTime] = None) -> Optional[dict]:
    """None if D is a connector for S on [0, horizon], else a violation record."""
    horizon = horizon_or_last_tick(space, filt, horizon)
    return _connector_violation(space, filt, D, horizon, S)


def _atom_program(p, s_jumps) -> tuple:
    """(c, A_eq, b_eq, A_ub, b_ub) of one atom's martingale-measure program.

    Columns q_1..q_m and the floor t; maximize t subject to sum q = 1,
    sum q_h s_h = 0 per component and p_h t <= q_h.  Rows are linfeas's
    sparse (column, nonzero value) pairs; p is positive.
    """
    m, dim = len(p), len(s_jumps[0])
    A_eq = [[(h, ONE) for h in range(m)]]
    A_eq += [[(h, sj[c]) for h, sj in enumerate(s_jumps) if sj[c]] for c in range(dim)]
    b_eq = [ONE] + [ZERO] * dim
    A_ub = [[(h, -ONE), (m, ph)] for h, ph in enumerate(p)]
    b_ub = [ZERO] * m
    return [ZERO] * m + [ONE], A_eq, b_eq, A_ub, b_ub


def _atom_weights(p, s_jumps) -> Optional[list]:
    """The optimal weights q of one atom's program, or None if the atom blocks a connector.

    The atom blocks when the program is infeasible or its optimal floor t
    is zero.  Only a drifting S of dimension two or more, and a scalar tie
    beside a zero jump, pose the program; every other atom has a closed
    form.  With one child, p = (1) and the only measure is q = (1): this
    returns p where the jump s is zero, and None otherwise (a scalar
    mu e = s^2 > 0, or an infeasible program in dimension two or more), so
    find_structure_connector tests s = 0 itself and does not call this
    there.  Where S has no drift (sum p_h s_h = 0), summing p_h t <= q_h
    gives t <= sum q = 1, with equality iff q = p, which is feasible there:
    q = p is the unique optimum.  Where a scalar S drifts by mu, take e = min s
    if mu > 0 and e = max s if mu < 0.  Write q = t p + r with r >= 0 and
    sum r = 1 - t: then 0 = sum q s = t mu + sum r s.  For mu > 0,
    sum r s >= (1 - t) e, so t (mu - e) <= -e; for mu < 0 both inequalities
    flip.  Hence the atom blocks iff mu e >= 0, and otherwise the floor is
    t = e / (e - mu), in (0, 1), reached only with all of r on children
    where s = e.  The optimal face thus has the vertices
    V_h = t p + (1 - t) 1_h, one per child h with s_h = e.  With one such
    child it is the unique optimum.  When several tie and no jump is zero,
    the simplex returns V_h for the first of them, h*, so that is returned.

    Why, for either sign of mu.  solve_lp orders the columns q_0..q_{m-1},
    t, then the slacks r_h = q_h - p_h t; it enters the first column that
    improves and, on a ratio tie, drops the row whose basic column comes
    first.  Phase one starts on the artificials of sum q = 1 and
    sum s q = 0.  While t = 0 each r_h equals q_h, so q_h leaves before
    r_h, every slack stays basic and t prices at zero: phase one is
    Bland's rule on those two rows.  Let j be the first child with
    s_j > -1 (the first positive price, 1 + s_j).  If s_j > 0, the basic
    child moves to the first child whose jump is below its own while that
    jump is positive; the first negative child then enters, and phase one
    ends on a measure on one positive child and the first negative one.
    If s_j < 0, it moves to the first child whose jump is above its own
    while negative, and ends with the first positive child.  In phase two,
    pivots change nothing until one raises t; every point with t > 0 has
    all of q and t basic and one slack r_g, so it is V_g, and the edge to
    it keeps q_k = p_k t off g and the child whose slack leaves.  So t
    first rises from phase one's measure to V_g for its child g on e's
    side.  At V_g, entering r_h raises t iff s_h lies strictly beyond s_g
    toward e, and the step ends at V_h; so each pivot takes the first
    such child, which is h* as soon as it is tied, since every tied child
    is beyond.  Phase one's child on e's side is tied only as h*: for
    mu > 0 it is the first negative child, or j or a child with a jump
    above s_j, and only j can be tied, before every tied child, since
    e > -1 then; for mu < 0 it is the first positive child, or j or a
    child below s_j, likewise.  A zero jump breaks this: 1_h is then a
    martingale measure on its own, and t can first rise from it to any
    child on e's side.
    """
    mean = jump_mean(p, s_jumps)
    if all(mu == ZERO for mu in mean):
        return p  # p itself, so the caller can tell that every jump of D is zero
    if len(mean) == 1:
        mu, s = mean[0], [sj[0] for sj in s_jumps]
        e = min(s) if mu > ZERO else max(s)
        if mu * e >= ZERO:
            return None
        extreme = [h for h, sh in enumerate(s) if sh == e]
        if len(extreme) == 1 or all(s):
            t = e / (e - mu)
            q = [t * ph for ph in p]
            q[extreme[0]] += ONE - t
            return q
    res = solve_lp(*_atom_program(p, s_jumps))
    if res.status == INFEASIBLE or res.value <= ZERO:
        return None
    return list(res.x[:len(p)])


@dataclass
class ConnectorSearch:
    """Outcome of the connector search: a checked jump table, or the atom that blocks one.

    A found search holds n, the filtration and the jump table of D, whose
    atoms have all passed their rows; it builds nothing.  D is assembled
    on the first read of connector and checked against the table there
    (_path_violation): D is scalar, and in one pass over every outcome and
    tick it starts at zero and jumps by its table entry (zero off the
    table), which makes it adapted and frozen after the horizon.  A
    failure raises InternalInvariant.  D is cached, so it is built at most
    once; a search that is not found reads None and builds nothing.
    """
    tick: Optional[int] = None
    atom: Optional[tuple] = None
    n: Optional[int] = None
    filt: Optional[Filtration] = None
    jumps: Optional[dict] = None  # (k, at(k)-atom) -> jump of D; None if not found

    @property
    def found(self) -> bool:
        return self.jumps is not None

    @cached_property
    def connector(self) -> Optional[Process]:
        if self.jumps is None:
            return None
        D = Process.from_jump_table(self.n, self.filt, self.jumps)
        bad = _path_violation(self.filt, D, self.jumps)
        if bad is not None:
            raise InternalInvariant("assembled connector fails its own check", **bad)
        return D


def find_structure_connector(space: SampleSpace, filt: Filtration, S: Process,
                             horizon: Optional[StoppingTime] = None) -> ConnectorSearch:
    """Search for a connector for S, or report the first atom ruling one out.

    The defining constraints split over (tick, left-limit atom).  On an atom
    with children h, conditional probabilities p_h and jumps s_h of S, the
    weights q_h = p_h (1 - jump_h(D)) turn them into a one-period
    martingale measure: sum q_h = 1, sum q_h s_h = 0 and every q_h > 0
    (Harrison-Pliska; Dalang-Morton-Willinger).  Each atom has a program
    over q and a floor t with p_h t <= q_h, maximizing t, so t is the gap
    min_h (1 - jump_h(D)) below one.  A positive optimal floor on every
    alive atom assembles into a connector with jumps 1 - q_h / p_h; an
    infeasible program or a floor of zero rules one out.

    An atom with one child reveals nothing at its tick: p = (1), the only
    martingale measure is q = (1), and the atom admits a connector exactly
    when S does not move there.  So it takes the flatness test
    S_k = S_{k-1} at its smallest outcome: if S moves, the search blocks
    at that (tick, atom); if not, D does not jump there.  That test is the
    atom's row, sum p_h s_h = s = 0, so such an atom adds no D jump and no
    row to the closing check, and poses no program.

    _atom_weights gives every other atom's optimum.  Only two kinds of
    atom pose the program to the simplex: S of dimension two or more that
    drifts, and a scalar S whose drift-opposing extreme jump is attained on
    two or more children (a tie) while some child's jump is zero.  There the
    optimum is a face whose vertex the simplex picks by Bland's rule, and
    the pinned connector digest fixes that vertex; a zero jump lets the
    simplex reach a tied child other than the first.  Driftless atoms
    (q = p, every jump of D zero) and the other scalar atoms, blocked or
    not, take the closed form, zero-free ties included.  Each atom comes
    with its children from the walk alive_atoms, and their probabilities
    from SampleSpace.split.

    Before a found search is returned, its atom table is checked on every
    alive atom with two or more children through _atom_rows_violation, as
    in is_structure_connector: the martingale row, the jump bound and
    sum q_h s_h = 0.  A driftless atom's row carries no D jumps, which pass
    the first two, so it is checked on sum p_h s_h = 0; for an atom with
    one child that row is the flatness test already passed, so it is not
    kept.  is_structure_connector and deflator_from_connector still check
    every alive atom.  A failure raises InternalInvariant.  The
    search then carries the checked table and builds no process; D is
    assembled and checked against the table on the first read of
    ConnectorSearch.connector.
    """
    if horizon is not None:  # without one, every atom is alive
        horizon = horizon_or_last_tick(space, filt, horizon)
    jump_of: dict = {}
    rows = []
    for k, b, kids in alive_atoms(filt, horizon):
        if len(kids) == 1:  # q = (1): the atom's row is sum p_h s_h = s = 0
            row = S.values[min(b)]
            if row[k] != row[k - 1]:
                return ConnectorSearch(tick=k, atom=tuple(sorted(b)))
            continue
        p = space.split(kids)
        s_jumps = S.child_jumps(k, kids)
        q = _atom_weights(p, s_jumps)
        if q is None:
            return ConnectorSearch(tick=k, atom=tuple(sorted(b)))
        if q is p:
            d_jumps = None  # driftless: D does not jump on the atom
        else:
            d_jumps = [(ONE - qh / ph,) for qh, ph in zip(q, p)]
            jump_of.update(((k, kid), dj) for kid, (dj,) in zip(kids, d_jumps))
        rows.append((k, b, kids, p, d_jumps, s_jumps))
    bad = _atom_rows_violation(rows)
    if bad is not None:
        raise InternalInvariant("assembled connector fails its own check", **bad)
    return ConnectorSearch(n=space.n, filt=filt, jumps=jump_of)


def deflator_from_connector(space: SampleSpace, filt: Filtration, D: Process,
                            horizon: Optional[StoppingTime] = None) -> Process:
    """The stochastic exponential of -D stopped at the horizon.

    Raises ConnectorInvalid, carrying the record of _connector_violation,
    when D cannot make a positive deflator.
    """
    horizon = horizon_or_last_tick(space, filt, horizon)
    bad = _connector_violation(space, filt, D, horizon)
    if bad is not None:
        raise ConnectorInvalid("not a deflating connector", **bad)
    return doleans_exp(-stop(D, horizon))


def _connector_atoms(eb: EnlargedBasis, D: Optional[Process]) -> list:
    """(k, c, ekids, inside, pbar, q) per alive enlarged atom c, after the gates.

    From the basis's atom table: c's children and the parts h & c of c in
    its base atom's children h, then per-child rows over the h:
    pbar_h = P(h | c) and D's weight q_h = p_h (1 - jump_h(D)) (q = p
    without D).  The gates run once, first, in this order: the
    child-support condition, which makes pbar positive exactly where p is,
    then that D is scalar, then that it is a base martingale.
    """
    support = check_condition_support(eb)
    if not support.ok:
        raise SupportConditionFailed(tick=support.tick, atom=sorted(support.atom),
                                     child=sorted(support.child))
    if D is not None and D.dim != 1:
        raise DimensionMismatch("the base connector D is scalar")
    if D is not None and not is_martingale(eb.space, eb.base, D):
        raise NotAMartingale()
    atoms = []
    for (k, c), (ekids, _, bkids, inside) in eb._atoms.items():
        p = eb.space.split(bkids)
        q = p if D is None else [ph * (ONE - dj) for ph, (dj,) in zip(p, D.child_jumps(k, bkids))]
        atoms.append((k, c, ekids, inside, eb.space.split(inside), q))
    return atoms


def _integrand(eb: EnlargedBasis, rep: RepresentationProcess, atoms: list) -> Process:
    """K on each atom of _connector_atoms: the multinomial inverse for pbar at 2^k (pbar - q).

    Both rows are padded to W's slots, so K has rep.width components.
    """
    width = rep.width
    value_at = {(k, c): _multinomial_solve(
        padded(width, pbar), padded(width, [2 ** k * (pb - qh) for pb, qh in zip(pbar, q)]),
        "integrand system inconsistent", tick=k, atom=sorted(c))
        for k, c, _, _, pbar, q in atoms}
    return Process.from_atom_table(eb.space.n, eb.enlarged, value_at, width)


def _closed_form_connector(eb: EnlargedBasis, atoms: list) -> Process:
    """Y jumping by 1 - q_h / pbar_h on every enlarged child inside base child h.

    An enlarged child lies in exactly one part h & c of its atom (the
    table's inside), which gives its slot h.  Each atom's exact row
    sum_h pbar_h y_h = 1 - sum_h q_h = 0 is checked; a failure raises
    InternalInvariant.
    """
    jump_of: dict = {}
    for k, c, ekids, inside, pbar, q in atoms:
        y = [ONE - qh / pb for qh, pb in zip(q, pbar)]
        if vec_dot(pbar, y) != ZERO:
            raise InternalInvariant("connector row fails", tick=k, atom=sorted(c))
        jump_of.update(((k, e), next(yh for part, yh in zip(inside, y) if e <= part))
                       for e in ekids)
    return Process.from_jump_table(eb.space.n, eb.enlarged, jump_of)


def _bare_connector(eb: EnlargedBasis, atoms: Optional[list] = None) -> Process:
    """The closed-form connector Y for D = None, built once per basis.

    Y depends only on the basis (its weights are q = p), so it is cached on
    eb under D = None.  atoms, when given, are _connector_atoms' rows for
    D = None; otherwise they are built here, behind the gates.
    """
    Y = eb._connectors.get(None)
    if Y is None:
        if atoms is None:
            atoms = _connector_atoms(eb, None)
        Y = eb._connectors[None] = _closed_form_connector(eb, atoms)
    return Y


def solve_accessible_K(eb: EnlargedBasis, rep: RepresentationProcess,
                       D: Optional[Process] = None) -> Process:
    """Enlarged-predictable integrand K with K . factors.Wt the enlarged connector.

    K solves Vt K = V (phi + H_D), H_D the representation coefficients of the
    base connector D (zero without D).  With Jacod's 1 + phi.jump(W) =
    pbar_h / p_h and q_h = p_h (1 - jump_h(D)), K is the closed-form
    multinomial inverse for pbar applied to r_h = 2^k (pbar_h - q_h), checked
    by its exact residual (Unsolvable on a failure).  Checked first: the
    child-support condition, which makes pbar positive exactly where p is,
    then that D is a scalar base martingale.
    """
    return _integrand(eb, rep, _connector_atoms(eb, D))


def enlarged_connector(eb: EnlargedBasis, rep: RepresentationProcess,
                       factors: DriftFactors, D: Optional[Process] = None):
    """(K, Y): K from solve_accessible_K and Y jumping 1 - q_h / pbar_h, so Y = K . factors.Wt.

    Y is built from its closed form, not by integrating K, so factors is
    not read; it stays for callers that pass it positionally.  The gates
    run once for both; K is solved first, so an atom whose weights do not
    sum to one raises K's Unsolvable.  For D = None, Y is then read from
    the basis's cache (_bare_connector), the verdict's connector object.
    """
    atoms = _connector_atoms(eb, D)
    K = _integrand(eb, rep, atoms)
    return K, _bare_connector(eb, atoms) if D is None else _closed_form_connector(eb, atoms)


def jump_identity_check(eb: EnlargedBasis, rep: RepresentationProcess,
                        factors: DriftFactors, K: Process,
                        D: Optional[Process] = None) -> Optional[tuple]:
    """Exact pointwise identity for the connector jumps on [0, horizon].

    jump(K . factors.Wt) == (jump(D) + phi.jump(W)) / (1 + phi.jump(W));
    returns None or the first failing (outcome, tick).
    """
    for i in range(eb.space.n):
        for k in range(1, eb.base.K + 1):
            if not eb.alive(i, k):
                continue
            lhs = vec_dot(K.at(i, k), factors.Wt.jump(i, k))
            dphi = factors.phi_dot_jump(i, k)
            dd = D.jump(i, k)[0] if D is not None else ZERO
            if lhs * (ONE + dphi) != dd + dphi:
                return (i, k)
    return None


def g_connector(eb: EnlargedBasis, rep: RepresentationProcess, factors: DriftFactors,
                S: Process, D: Process) -> Process:
    """Transfer a base connector D for the base-adapted S into an enlarged-filtration one.

    Builds Y from its closed form, as enlarged_connector does but solving
    no K, then verifies exactly on [0, horizon], per child
    (_transfer_mismatch), that the jump covariance of Y against the
    enlarged martingale part of S equals the base-side covariance of D plus
    the multiplier-weighted covariance of the driving process, per component,
    and that Y is an enlarged connector for S (every jump below one among its
    conditions).  Raises ConnectorInvalid on a mismatch, which contradicts the construction.
    """
    if not is_adapted(eb.base, S):
        raise NotAdapted()
    Y = _closed_form_connector(eb, _connector_atoms(eb, D))
    bad = _transfer_mismatch(eb, factors, S, (Y, D))
    if bad is not None:
        raise ConnectorInvalid("transfer identity failed",
                               outcome=bad[0], tick=bad[1], component=bad[2])
    bad = is_structure_connector(eb.space, eb.enlarged, S, Y, eb.horizon)
    if bad is not None:
        raise ConnectorInvalid("transferred process is not a connector", **bad)
    return Y


def witness_asset(eb: EnlargedBasis, rep: RepresentationProcess,
                  support: SupportReport) -> Process:
    """A base martingale that no enlarged deflator can price.

    The violating enlarged atom misses one child of its base atom, so the
    matching component of the driving process, fired only at that tick and
    on that base atom, jumps strictly negative on the whole atom; any
    positive deflator would give it a negative conditional increment.
    """
    k = support.tick
    _, b, bkids, _ = eb._atoms[(k, support.atom)]
    return fired_component(rep, k, b, bkids.index(support.child))


@dataclass
class ViabilityReport:
    verdict: bool
    condition_support: bool
    positivity: Optional[bool] = None
    support: Optional[SupportReport] = None
    factors: Optional[DriftFactors] = None
    connector: Optional[Process] = None  # Y for D = 0
    deflator: Optional[Process] = None   # exp(-Y), deflates every driving component
    witness: Optional[dict] = None       # tick, atom, child, asset, certificate


def full_viability_verdict(eb: EnlargedBasis,
                           rep: Optional[RepresentationProcess] = None) -> ViabilityReport:
    """Decide whether base viability survives the enlargement on [0, horizon].

    The verdict equals the child-support condition; jump positivity of the
    multiplier pairing is evaluated alongside and reported.  When the
    verdict holds the report carries the multiplier row, the connector for
    the bare driving process (from its closed form; no K is solved), and
    the common deflator exp(-Y).  The factors and Y are the ones cached on
    eb: a caller that already ran solve_factors(eb, rep) with the same rep
    gets its own factors back, not a second solve.  Positivity is checked
    on every call.  When the verdict fails the report carries a
    witness: a base martingale built from the violating (tick, atom,
    child), and oracle.arbitrage_certificate's proof that no enlarged
    deflator prices it, written in closed form over the oracle's rows and
    re-checked there; no simplex runs.
    """
    if rep is None:
        rep = build_representation(eb.space, eb.base)
    support = check_condition_support(eb)
    if not support.ok:
        k, c = support.tick, support.atom
        asset = witness_asset(eb, rep, support)
        return ViabilityReport(verdict=False, condition_support=False, support=support, witness={
            "tick": k, "atom": sorted(c), "child": sorted(support.child), "asset": asset,
            "certificate": arbitrage_certificate(eb.space, eb.enlarged, asset, eb.horizon, k, c)})
    factors = solve_factors(eb, rep)
    bad = check_positivity(eb, factors)
    if bad is not None:
        raise InternalInvariant("multiplier pairing not positive under support",
                                outcome=bad[0], tick=bad[1])
    Y = _bare_connector(eb)
    Z = doleans_exp(-Y)
    return ViabilityReport(verdict=True, condition_support=True, positivity=True,
                           support=support, factors=factors, connector=Y, deflator=Z)
