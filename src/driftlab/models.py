"""Randomized instance generators and model cross-checks.

Everything here is deterministic in the seed: generators thread a single
random.Random through every draw, so a (seed, config) pair names one
instance forever.  Two named constructions get first-class treatment
because they admit independent closed-form drift formulas worth checking
against the generic machinery: enlargement by a finite random variable
revealed at time zero (conditional-density, or Jacod, form) and
progressive enlargement by a random time (Azema supermartingale form).
Both cross-checks are exact; boundary atoms that continuous-time
treatments assume away are handled explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .basis import (Filtration, Partition, Process, SampleSpace, StoppingTime,
                    alive_atoms, cond_expect, cond_prob)
from .calculus import jump_mean
from .enlargement import (DriftFactors, EnlargedBasis, drift_operator, solve_factors,
                          validate_enlargement)
from .errors import (AzemaDegenerate, DataInvariantViolated, JacodDegenerate,
                     NotARandomTime)
from .event_kernels import AccessibleEventData, InaccessibleEventData
from .linalg import vec_dot
from .rational import ONE, ZERO, Q, _dot
from .representation import RepresentationProcess, build_representation


ENLARGEMENT_KINDS = ("random", "initial", "progressive")


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    enlargement_kind: str = "random"
    force_condition_failure: bool = False


def _check_cfg(cfg: GeneratorConfig) -> None:
    if cfg.enlargement_kind not in ENLARGEMENT_KINDS:
        raise DataInvariantViolated("unknown enlargement kind")


def _rand_prob(rng: random.Random, n: int) -> tuple:
    weights = [rng.randint(1, 12) for _ in range(n)]
    total = sum(weights)
    return tuple(Q(w, total) for w in weights)


def _rand_q(rng: random.Random, lo: int = -8, hi: int = 8, den: int = 4) -> Q:
    return Q(rng.randint(lo, hi), rng.randint(1, den))


def _split_block(rng: random.Random, block, parts: int):
    members = sorted(block)
    rng.shuffle(members)
    cuts = sorted(rng.sample(range(1, len(members)), parts - 1))
    pieces = []
    prev = 0
    for c in cuts + [len(members)]:
        pieces.append(frozenset(members[prev:c]))
        prev = c
    return pieces


def _refine(rng: random.Random, part: Partition, split_prob: float,
            max_children: int) -> Partition:
    blocks = []
    for b in part.blocks:
        if len(b) >= 2 and rng.random() < split_prob:
            parts = rng.randint(2, min(max_children, len(b)))
            blocks.extend(_split_block(rng, b, parts))
        else:
            blocks.append(b)
    return Partition(blocks)


def gen_single_filtration(rng: random.Random, n: int, ticks: int,
                          max_children: int) -> tuple:
    space = SampleSpace(tuple(f"w{i}" for i in range(n)), _rand_prob(rng, n))
    initial = Partition([range(n)])
    if rng.random() < 0.2:
        initial = _refine(rng, initial, 0.6, max_children)
    chain = []
    cur = initial
    for _ in range(ticks):
        pre = _refine(rng, cur, 0.3, max_children)
        at = _refine(rng, pre, 0.8, max_children)
        chain.append((pre, at))
        cur = at
    return space, Filtration(initial, tuple(chain))


def random_stopping_time(rng: random.Random, space: SampleSpace,
                         filt: Filtration) -> StoppingTime:
    """Fire whole tick atoms at random; unfired paths run forever."""
    vals: list = [None] * space.n
    for k in range(1, filt.K + 1):
        for b in filt.at(k).blocks:
            if all(vals[i] is None for i in b) and rng.random() < 0.25:
                for i in b:
                    vals[i] = k
    if rng.random() < 0.5:
        vals = [filt.K if v is None else v for v in vals]
    return StoppingTime(tuple(vals))


def random_adapted(rng: random.Random, space: SampleSpace, filt: Filtration,
                   dim: int = 1) -> Process:
    value_of = {}
    for k in range(filt.K + 1):
        for b in filt.at(k).blocks:
            value_of[(k, b)] = tuple(_rand_q(rng) for _ in range(dim))
    return Process.from_value_table(space.n, filt, value_of, dim)


def _martingale_jumps(rng: random.Random, space: SampleSpace, filt: Filtration,
                      cap: Optional[Q]) -> dict:
    """random_martingale's jump table: (k, at(k)-atom) -> its scalar jump at k."""
    jump_of = {}
    for k, _, kids in alive_atoms(filt):
        raw = [_rand_q(rng) for _ in kids]
        mean = _dot(space.split(kids), raw)
        cent = [r - mean for r in raw]
        if cap is not None:
            peak = max((abs(v) for v in cent), default=ZERO)
            if peak > cap:
                scale = cap / peak
                cent = [v * scale for v in cent]
        for kid, v in zip(kids, cent):
            jump_of[(k, kid)] = v
    return jump_of


def random_martingale(rng: random.Random, space: SampleSpace, filt: Filtration,
                      cap: Optional[Q] = None) -> Process:
    """Scalar martingale null at zero; per-atom scaling keeps |jump| <= cap."""
    return Process.from_jump_table(space.n, filt, _martingale_jumps(rng, space, filt, cap))


def random_viable_asset(rng: random.Random, space: SampleSpace, filt: Filtration,
                        dim: int = 1) -> tuple:
    """(S, D, Z): positive asset family with a known connector and deflator.

    Z is the exponential of -D and each component of S is an exponential
    martingale divided by Z, so Z*S is a martingale by construction and D
    is a connector for S.  Jumps are capped away from the poles.  The jump
    tables of D and of each exponential martingale are drawn first; then
    one walk over the at(k)-atoms carries D, Z and the exponentials from
    each atom's parent and forms S there.
    """
    cap = Q(7, 8)
    d_jumps = _martingale_jumps(rng, space, filt, cap)
    u_jumps = [_martingale_jumps(rng, space, filt, cap) for _ in range(dim)]
    ones = (ONE,) * dim
    d_of, z_of, u_of, s_of = {}, {}, {}, {}
    for b in filt.initial.blocks:
        d_of[(0, b)], z_of[(0, b)], u_of[(0, b)], s_of[(0, b)] = (ZERO,), (ONE,), ones, ones
    for k in range(1, filt.K + 1):
        prev = filt.at(k - 1)
        for c in filt.at(k).blocks:
            parent, key = (k - 1, prev.block_of(min(c))), (k, c)
            dj = d_jumps[key]
            d_of[key] = (d_of[parent][0] + dj,)
            z = z_of[parent][0] * (ONE - dj)
            z_of[key] = (z,)
            us = u_of[key] = tuple(u * (ONE + jumps[key]) for u, jumps in zip(u_of[parent], u_jumps))
            s_of[key] = tuple(u / z for u in us)
    return (Process.from_value_table(space.n, filt, s_of, dim),
            Process.from_value_table(space.n, filt, d_of),
            Process.from_value_table(space.n, filt, z_of))


def tilted_component_assets(space: SampleSpace, filt: Filtration,
                            rep: Optional[RepresentationProcess] = None) -> list:
    """Positive single-jump assets spanning every (tick, atom, child slot).

    Each asset is the exponential of one driving-process component fired
    only at one tick on one left-limit atom.  Spanning these suffices to
    expose any viability loss an enlargement can inflict on this basis.
    Fired at tick k on b in slot s, the asset is worth 1 + jump_s(W) on
    each child h of b from tick k on, and 1 everywhere else; it is built
    once per at(k)-atom from that closed form.
    """
    if rep is None:
        rep = build_representation(space, filt)
    one = (ONE,)
    flat = {(j, c): one for j in range(filt.K + 1) for c in filt.at(j).blocks}
    out = []
    for k, b, kids in alive_atoms(filt):
        if len(kids) < 2:
            continue
        at_k = filt.at(k)
        inside = [((j, c), at_k.block_of(min(c))) for j in range(k, filt.K + 1)
                  for c in filt.at(j).blocks if min(c) in b]
        w_of = {kid: rep.W.jump(min(kid), k) for kid in kids}
        for slot in range(len(kids)):
            grown = {kid: (ONE + w[slot],) for kid, w in w_of.items()}
            table = dict(flat)
            table.update((key, grown[kid]) for key, kid in inside)
            out.append(Process.from_value_table(space.n, filt, table))
    return out


# --- enlargement generators ---

def _overlay_filtration(rng: random.Random, base: Filtration,
                        max_children: int) -> Filtration:
    g0 = _refine(rng, base.initial, 0.3, max_children)
    chain = []
    prev = g0
    for k in range(1, base.K + 1):
        pre = prev.meet(base.pre(k))
        if rng.random() < 0.45:
            pre = _refine(rng, pre, 0.5, max_children)
        at = pre.meet(base.at(k))
        if rng.random() < 0.35:
            at = _refine(rng, at, 0.5, max_children)
        chain.append((pre, at))
        prev = at
    return Filtration(g0, tuple(chain))


def _level_partition(values: Sequence) -> Partition:
    levels: dict = {}
    for i, v in enumerate(values):
        levels.setdefault(v, []).append(i)
    return Partition(levels.values())


def gen_initial_enlargement(space: SampleSpace, base: Filtration,
                            xi: Sequence[int]) -> EnlargedBasis:
    """Reveal a finite-valued variable at time zero: G = F joined with sigma(xi)."""
    if len(xi) != space.n:
        raise DataInvariantViolated("xi must assign a value to every outcome")
    xpart = _level_partition(xi)
    chain = tuple((base.pre(k).meet(xpart), base.at(k).meet(xpart))
                  for k in range(1, base.K + 1))
    enlarged = Filtration(base.initial.meet(xpart), chain)
    horizon = StoppingTime.constant(space.n, base.K)
    return EnlargedBasis(space=space, base=base, enlarged=enlarged, horizon=horizon)


def _normalize_tau(space: SampleSpace, base: Filtration, tau: Sequence) -> list:
    if len(tau) != space.n:
        raise NotARandomTime("tau must assign a time to every outcome")
    out = []
    for v in tau:
        if v is None:
            out.append(None)
        elif isinstance(v, int) and v >= 0:
            out.append(v if v <= base.K else None)
        else:
            raise NotARandomTime("tau values must be ticks or None")
    return out


def gen_progressive_enlargement(space: SampleSpace, base: Filtration,
                                tau: Sequence) -> EnlargedBasis:
    """Progressively reveal a random time; horizon is the time itself.

    At tick k the enlarged observer knows the exact value of tau on
    {tau <= k} and only survival on {tau > k}; the left-limit level lags
    one tick, which is what makes tau a stopping time for the enlarged
    chain while keeping {tau < k} visible at k-.
    """
    vals = _normalize_tau(space, base, tau)

    def stage(j: int) -> Partition:
        return _level_partition([v if v is not None and v <= j else None
                                 for v in vals])

    chain = tuple((base.pre(k).meet(stage(k - 1)), base.at(k).meet(stage(k)))
                  for k in range(1, base.K + 1))
    enlarged = Filtration(base.initial.meet(stage(0)), chain)
    return EnlargedBasis(space=space, base=base, enlarged=enlarged,
                         horizon=StoppingTime(tuple(vals)))


def _force_support_failure(rng: random.Random, eb: EnlargedBasis) -> Optional[EnlargedBasis]:
    """Split an alive enlarged left-limit atom along one base child.

    The split piece inside the child misses every sibling child, so the
    support condition fails there by construction.  Downstream levels
    already separate the children, so only the one level changes.
    """
    enlarged = eb.enlarged
    candidates = []
    for (k, c), (_, _, _, inside) in eb._atoms.items():
        met = [part for part in inside if part]
        if len(met) >= 2:
            candidates.append((k, c, met))
    if not candidates:
        return None
    k, c, met = candidates[rng.randrange(len(candidates))]
    piece = met[rng.randrange(len(met))]
    blocks = [x for x in enlarged.pre(k).blocks if x != c] + [piece, c - piece]
    chain = list(enlarged.ticks)
    chain[k - 1] = (Partition(blocks), enlarged.at(k))
    patched = Filtration(enlarged.initial, tuple(chain))
    return EnlargedBasis(space=eb.space, base=eb.base, enlarged=patched,
                         horizon=eb.horizon)


def gen_random_instance(cfg: GeneratorConfig) -> EnlargedBasis:
    """A valid enlarged instance: 4..9 outcomes, 1..3 ticks, at most 3 children an atom."""
    _check_cfg(cfg)
    rng = random.Random(cfg.seed)
    while True:
        n = rng.randint(4, 9)
        ticks = rng.randint(1, 3)
        space, base = gen_single_filtration(rng, n, ticks, 3)
        if cfg.enlargement_kind == "initial":
            xi = [rng.randint(0, 1) for _ in range(n)]
            eb = gen_initial_enlargement(space, base, xi)
        elif cfg.enlargement_kind == "progressive":
            tau = [rng.choice([None] + list(range(1, ticks + 1))) for _ in range(n)]
            eb = gen_progressive_enlargement(space, base, tau)
        else:
            enlarged = _overlay_filtration(rng, base, 3)
            horizon = (StoppingTime.constant(n, ticks) if rng.random() < 0.6
                       else random_stopping_time(rng, space, enlarged))
            eb = EnlargedBasis(space=space, base=base, enlarged=enlarged,
                               horizon=horizon)
        if cfg.force_condition_failure:
            forced = _force_support_failure(rng, eb)
            if forced is None:
                continue
            eb = forced
        diag = validate_enlargement(eb)
        if diag.ok:
            return eb


# --- conditional-density (initial enlargement) cross-check ---

def jacod_density_table(space: SampleSpace, base: Filtration, xi: Sequence[int]) -> dict:
    """Normalized conditional densities q of each xi-level along the chain.

    Returns {"values": [...], "at": {(x, k): tuple}, "pre": {(x, k): tuple}}
    with every table entry a per-outcome tuple of P(xi = x | atom) / P(xi = x).
    """
    values = sorted(set(xi))
    table: dict = {"values": values, "at": {}, "pre": {}}
    for x in values:
        level = frozenset(i for i, v in enumerate(xi) if v == x)
        px = space.mass(level)
        for k in range(base.K + 1):
            col = cond_prob(space, base.at(k), level)
            table["at"][(x, k)] = tuple(v / px for v in col)
        for k in range(1, base.K + 1):
            col = cond_prob(space, base.pre(k), level)
            table["pre"][(x, k)] = tuple(v / px for v in col)
    return table


def jacod_phi_crosscheck(eb: EnlargedBasis, xi: Sequence[int]) -> bool:
    """Drift and multiplier identities against the conditional-density route.

    Checks, exactly and pointwise on every outcome and tick: the drift of
    each driving component equals the density-covariance formula divided
    by the left density at the realized level, and the multiplier pairing
    satisfies phi.jump = (innovation of q)/q_left and
    phi.jump/(1 + phi.jump) = (innovation of q)/q_now.  Degenerate tables
    (a vanishing left density anywhere) are refused.
    """
    space, base = eb.space, eb.base
    table = jacod_density_table(space, base, xi)
    for (x, k), col in table["pre"].items():
        if any(v == ZERO for v in col):
            raise JacodDegenerate(value=x, tick=k)
    rep = build_representation(space, base)
    factors = solve_factors(eb, rep)
    drift = drift_operator(eb, rep.W)
    n, width = space.n, rep.width
    for k in range(1, base.K + 1):
        innov = {x: [table["at"][(x, k)][j] - table["pre"][(x, k)][j] for j in range(n)]
                 for x in table["values"]}
        cov = {x: [cond_expect(space, base.pre(k),
                               [innov[x][j] * rep.W.jump(j, k)[h] for j in range(n)])
                   for h in range(width)]
               for x in table["values"]}
        for i in range(n):
            if not eb.alive(i, k):
                continue
            x = xi[i]
            q_pre = table["pre"][(x, k)][i]
            q_now = table["at"][(x, k)][i]
            for h in range(width):
                if drift.jump(i, k)[h] * q_pre != cov[x][h][i]:
                    return False
            pairing = factors.phi_dot_jump(i, k)
            if pairing * q_pre != innov[x][i]:
                return False
            if pairing * q_now != (ONE + pairing) * innov[x][i]:
                return False
    return True


# --- survival-process (progressive enlargement) cross-check ---

def azema_phi_crosscheck(eb: EnlargedBasis, tau: Sequence) -> bool:
    """Drift and multiplier identities against the survival-process route.

    Uses the closed survival probabilities P(tau >= k | .) whose tick
    innovation drives the exact discrete identities:
    left-survival * drift-jump = E[innovation * jump | base-left] per
    driving component, phi.jump * left = innovation, and
    phi.jump * now = (1 + phi.jump) * innovation, all on {tau >= k}.
    The strict survival process P(tau > k | F_k) differs by the boundary
    atom {tau = k}; its martingale part is reconciled explicitly instead
    of being assumed away.
    """
    space, base = eb.space, eb.base
    vals = _normalize_tau(space, base, tau)
    n = space.n
    rep = build_representation(space, base)
    factors = solve_factors(eb, rep)
    drift = drift_operator(eb, rep.W)

    def geq_event(k: int) -> frozenset:
        return frozenset(i for i, v in enumerate(vals) if v is None or v >= k)

    def gt_event(k: int) -> frozenset:
        return frozenset(i for i, v in enumerate(vals) if v is None or v > k)

    strict_prev = cond_prob(space, base.at(0), gt_event(0))
    for k in range(1, base.K + 1):
        closed_now = cond_prob(space, base.at(k), geq_event(k))
        closed_pre = cond_prob(space, base.pre(k), geq_event(k))
        strict_now = cond_prob(space, base.at(k), gt_event(k))
        innov = [closed_now[j] - closed_pre[j] for j in range(n)]

        # boundary reconciliation: strict innovation = closed innovation
        # minus the centered boundary-atom probability, everywhere
        boundary = [closed_now[j] - strict_now[j] for j in range(n)]
        b_mean = cond_expect(space, base.pre(k), boundary)
        dz = [strict_now[j] - strict_prev[j] for j in range(n)]
        dz_mean = cond_expect(space, base.pre(k), dz)
        for j in range(n):
            if dz[j] - dz_mean[j] != innov[j] - (boundary[j] - b_mean[j]):
                return False

        cov = [cond_expect(space, base.pre(k),
                           [innov[j] * rep.W.jump(j, k)[h] for j in range(n)])
               for h in range(rep.width)]
        for i in range(n):
            if not eb.alive(i, k):
                continue
            if closed_pre[i] == ZERO:
                raise AzemaDegenerate(tick=k, outcome=i)
            for h in range(rep.width):
                if closed_pre[i] * drift.jump(i, k)[h] != cov[h][i]:
                    return False
            pairing = factors.phi_dot_jump(i, k)
            if pairing * closed_pre[i] != innov[i]:
                return False
            if pairing * closed_now[i] != (ONE + pairing) * innov[i]:
                return False
        strict_prev = strict_now
    return True


# --- event-data bridges and randomizers ---

def extract_accessible_event_data(eb: EnlargedBasis, rep: RepresentationProcess,
                                  factors: DriftFactors, D: Optional[Process],
                                  k: int, cblk: frozenset) -> AccessibleEventData:
    """Package one (tick, enlarged left-limit atom) as accessible event data, a slot per child."""
    _, _, kids, inside = eb._atoms[(k, cblk)]
    d_vals = (ZERO,) * len(kids) if D is None else tuple(d for (d,) in D.child_jumps(k, kids))
    return AccessibleEventData(p=eb.space.split(kids), pbar=eb.space.split(inside),
                               n_vals=tuple(rep.W.child_jumps(k, kids)), d_vals=d_vals,
                               phi=factors.phi.at(min(cblk), k))


def random_accessible_instance(rng: random.Random) -> dict:
    """A one-tick enlarged basis with support, its connector, and its event data.

    Integer weights guarantee every child meets the distinguished enlarged
    atom, so the support condition holds and the extracted data satisfies
    the kernel invariants; the identities relating the engine route to the
    kernel formulas can then be tested on genuinely random events.
    """
    m = rng.randint(2, 4)
    inside = [rng.randint(1, 9) for _ in range(m)]
    outside = [rng.randint(1, 9) for _ in range(m)]
    total = sum(inside) + sum(outside)
    prob = [Q(w, total) for pair in zip(inside, outside) for w in pair]
    space = SampleSpace(tuple(f"w{i}" for i in range(2 * m)), prob)
    trivial = Partition([range(2 * m)])
    children = Partition([{2 * h, 2 * h + 1} for h in range(m)])
    base = Filtration(trivial, ((trivial, children),))
    c_atom = frozenset(2 * h for h in range(m))
    g_pre = Partition([c_atom, frozenset(range(2 * m)) - c_atom])
    enlarged = Filtration(trivial, ((g_pre, g_pre.meet(children)),))
    eb = EnlargedBasis(space=space, base=base, enlarged=enlarged,
                       horizon=StoppingTime.constant(2 * m, 1))
    D = random_martingale(rng, space, base, cap=Q(7, 8))
    rep = build_representation(space, base)
    factors = solve_factors(eb, rep)
    data = extract_accessible_event_data(eb, rep, factors, D, 1, c_atom)
    return {"eb": eb, "rep": rep, "factors": factors, "D": D,
            "tick": 1, "atom": c_atom, "data": data}


def random_inaccessible_event_data(rng: random.Random) -> InaccessibleEventData:
    """Random cell data satisfying the inaccessible-event invariants.

    Cell probabilities and scaled pair rows are drawn first; the
    multiplier row is rejection-sampled until every cell tilt stays
    positive, which forces the mean tilt positive as well; the enlarged
    cell probabilities are then defined by the tilt identity.
    """
    cells = rng.randint(2, 4)
    width = rng.randint(1, 3)
    denom = rng.randint(cells + 1, 3 * cells + 2)
    weights = [rng.randint(1, max(1, denom // cells)) for _ in range(cells)]
    q = tuple(Q(w, denom) for w in weights)
    jump_scale = tuple(_rand_q(rng, -5, 5, 3) or ONE for _ in range(cells))
    pair_rows = tuple(tuple(_rand_q(rng, -4, 4, 3) for _ in range(width))
                      for _ in range(cells))
    while True:
        phi = tuple(_rand_q(rng, -4, 4, 3) for _ in range(width))
        scaled = [tuple(a * z for z in row) for a, row in zip(jump_scale, pair_rows)]
        tilts = [ONE + vec_dot(phi, row) for row in scaled]
        if all(t > ZERO for t in tilts):
            break
    drive_mean = jump_mean(q, scaled)
    mean_tilt = ONE + vec_dot(phi, drive_mean)
    qbar = tuple(t * qk / mean_tilt for t, qk in zip(tilts, q))
    base_coeff = []
    for a in jump_scale:
        j = _rand_q(rng, -4, 4, 3)
        if j * a >= ONE:
            j = ONE / (2 * a)
        base_coeff.append(j)
    return InaccessibleEventData(q=q, qbar=qbar, jump_scale=jump_scale,
                                 base_coeff=tuple(base_coeff),
                                 pair_rows=pair_rows, drive_mean=drive_mean,
                                 phi=phi)
