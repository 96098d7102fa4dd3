"""Filtration enlargement: drift operators and their multiplier factorization.

An enlarged basis couples two filtrations on one space, the enlarged one
refining the base one at every level, plus a horizon stopping time.  For a
base martingale X the drift operator accumulates the enlarged-side
conditional jump means on the closed interval [0, horizon]; subtracting it
restores the martingale property in the enlarged filtration.

The factorization expresses every such drift as phi . [N, X]-compensator
with N the canonical representation process W of the base filtration and
phi solved per (tick, enlarged left-limit atom) from the base-conditional
covariance of the jumps of W, taking the minimum-norm solution in its row
space.  The target of that solve is W's own enlarged jump mean, so the
factorization also returns W minus its drift, the integrator of every
enlarged connector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .basis import (Diagnostics, Filtration, Process, SampleSpace, StoppingTime,
                    cond_expect, is_stopping_time, validate)
from .calculus import compensator, is_adapted, is_martingale, stop
from .errors import FactorsMissing, NotAMartingale, NotAdapted, Unsolvable
from .linalg import min_norm_solve, vec_dot
from .rational import ONE, ZERO, Q
from .representation import RepresentationProcess


@dataclass(frozen=True)
class EnlargedBasis:
    space: SampleSpace
    base: Filtration
    enlarged: Filtration
    horizon: StoppingTime

    def alive(self, i: int, k: int) -> bool:
        return self.horizon.geq(i, k)


def validate_enlargement(eb: EnlargedBasis) -> Diagnostics:
    errors: list[str] = []
    for diag in (validate(eb.space, eb.base), validate(eb.space, eb.enlarged)):
        errors.extend(diag.errors)
    if not errors:
        pairs = [("at(0)", eb.enlarged.initial, eb.base.initial)]
        for k in range(1, min(eb.base.K, eb.enlarged.K) + 1):
            pairs.append((f"pre({k})", eb.enlarged.pre(k), eb.base.pre(k)))
            pairs.append((f"at({k})", eb.enlarged.at(k), eb.base.at(k)))
        if eb.base.K != eb.enlarged.K:
            errors.append("REFINEMENT_BROKEN: tick counts differ")
        for name, fine, coarse in pairs:
            if not fine.refines(coarse):
                errors.append(f"REFINEMENT_BROKEN({name}): enlargement does not refine the base")
                break
    if not errors and not is_stopping_time(eb.enlarged, eb.horizon):
        errors.append("NOT_A_STOPPING_TIME: horizon not measurable in the enlarged filtration")
    return Diagnostics(ok=not errors, errors=tuple(errors))


def drift_operator(eb: EnlargedBasis, X: Process) -> Process:
    """Cumulative enlarged-side conditional jump means on [0, horizon].

    This is the enlarged-filtration compensator of X stopped at the
    horizon, so X - drift is the stopped compensated process.
    """
    if not is_martingale(eb.space, eb.base, X):
        raise NotAMartingale("drift operator expects a base-filtration martingale")
    return stop(compensator(eb.space, eb.enlarged, X), eb.horizon)


def tilde(eb: EnlargedBasis, X: Process) -> Process:
    """X minus its drift: an enlarged-filtration martingale on [0, horizon]."""
    return X - drift_operator(eb, X)


@dataclass(frozen=True)
class DriftFactors:
    """Multiplier row phi against the driving process N, and Wt = N - drift_operator(eb, N)."""
    N: Process    # the canonical representation process of the base filtration
    phi: Process  # enlarged-predictable multiplier row, dim = N.dim
    Wt: Process   # jump(N) minus its enlarged jump mean up to the horizon, jump(N) after

    def phi_dot_jump(self, i: int, k: int) -> Q:
        return vec_dot(self.phi.at(i, k), self.N.jump(i, k))


def _jump_cov(weights, jumps, width: int):
    """Sum over children of weight * jump jump^T, skipping zero entries."""
    V = [[ZERO] * width for _ in range(width)]
    for w, jv in zip(weights, jumps):
        for a in range(width):
            if jv[a] == ZERO:
                continue
            row = V[a]
            for bb in range(width):
                row[bb] += w * jv[a] * jv[bb]
    return V


def _base_cov(rep: RepresentationProcess, k: int, b: frozenset[int]):
    """E[jump(W) jump(W)^T | base left-limit atom] from the child table.

    W is a base martingale, so its conditional jump mean on b is zero and
    the second moment needs no centring.
    """
    live = [(ph, kid) for ph, kid in zip(rep.probs[(k, b)], rep.children[(k, b)]) if kid]
    return _jump_cov([ph for ph, _ in live],
                     [rep.W.jump(min(kid), k) for _, kid in live], rep.width)


def _enlarged_jump_mean(eb: EnlargedBasis, rep: RepresentationProcess, k: int,
                        c: frozenset[int]):
    """(b, pbar, rows, gamma) for the enlarged left-limit atom c at tick k.

    b is the base atom holding c.  Per child slot of b: pbar, the
    conditional probability of the child inside c, and rows, W's jump on
    it (zero on a padding slot).  W's jump is constant on each base child,
    so gamma = sum pbar_h rows_h is W's enlarged conditional jump mean on
    c, exactly.
    """
    b = eb.base.pre(k).block_of(min(c))
    mass = eb.space.mass(c)
    kids = rep.children[(k, b)]
    pbar = tuple(eb.space.mass(kid & c) / mass for kid in kids)
    rows = tuple(rep.W.jump(min(kid), k) if kid else (ZERO,) * rep.width for kid in kids)
    gamma = tuple(sum((pb * w[h] for pb, w in zip(pbar, rows)), ZERO)
                  for h in range(rep.width))
    return b, pbar, rows, gamma


def solve_factors(eb: EnlargedBasis, rep: RepresentationProcess) -> DriftFactors:
    """Minimum-norm multiplier per (tick, enlarged left-limit atom), and W minus its drift.

    The target is the enlarged-side conditional jump mean of the driving
    process; consistency of the linear system is a structural fact here
    (the target is orthogonal to the covariance kernel), so a failed solve
    is raised as an internal error rather than reported.
    """
    space, enlarged = eb.space, eb.enlarged
    width = rep.width
    phi_by_atom: dict = {}
    gamma_by_atom: dict = {}
    for k in range(1, eb.base.K + 1):
        cov_cache: dict = {}
        for c in enlarged.pre(k).blocks:
            if not eb.horizon.alive_block(c, k):
                phi_by_atom[(k, c)] = gamma_by_atom[(k, c)] = (ZERO,) * width
                continue
            b, _, _, gamma = _enlarged_jump_mean(eb, rep, k, c)
            if b not in cov_cache:
                cov_cache[b] = _base_cov(rep, k, b)
            phi = min_norm_solve(cov_cache[b], gamma)
            if phi is None:
                raise Unsolvable("factor system inconsistent", tick=k, atom=sorted(c))
            phi_by_atom[(k, c)] = tuple(phi)
            gamma_by_atom[(k, c)] = gamma
    drift = Process.from_jumps(space.n, eb.base.K,
                               lambda i, k: gamma_by_atom[(k, enlarged.pre(k).block_of(i))],
                               dim=width)
    return DriftFactors(N=rep.W, phi=Process.from_atom_table(space.n, enlarged, phi_by_atom, width),
                        Wt=rep.W - drift)


def factorization_check(eb: EnlargedBasis, factors: DriftFactors, X: Process):
    """Drift of the base martingale X == phi . [N, X]-compensator increments, on [0, horizon].

    For a base martingale the base compensator increment is zero, so this
    is the compensator transfer identity; returns None or the first
    mismatching (outcome, tick, component).
    """
    if not is_martingale(eb.space, eb.base, X):
        raise NotAMartingale("drift factorization expects a base-filtration martingale")
    return compensator_transfer_check(eb, factors, X)


def compensator_transfer_check(eb: EnlargedBasis, factors: Optional[DriftFactors], A: Process):
    """Enlarged-side compensator == base compensator + phi . [N, A]-compensator.

    Checked incrementally on [0, horizon] for a base-adapted A; returns None
    on success or the first mismatching (outcome, tick, component).
    """
    if factors is None:
        raise FactorsMissing()
    if not is_adapted(eb.base, A):
        raise NotAdapted()
    n, K = eb.space.n, eb.base.K
    for k in range(1, K + 1):
        g_part = eb.enlarged.pre(k)
        f_part = eb.base.pre(k)
        for c in range(A.dim):
            lhs = cond_expect(eb.space, g_part, [A.jump(i, k)[c] for i in range(n)])
            base = cond_expect(eb.space, f_part, [A.jump(i, k)[c] for i in range(n)])
            cols = [cond_expect(eb.space, f_part,
                                [factors.N.jump(i, k)[h] * A.jump(i, k)[c] for i in range(n)])
                    for h in range(factors.N.dim)]
            for i in range(n):
                if not eb.alive(i, k):
                    continue
                rhs = base[i] + vec_dot(factors.phi.at(i, k),
                                        [cols[h][i] for h in range(factors.N.dim)])
                if lhs[i] != rhs:
                    return (i, k, c)
    return None


@dataclass(frozen=True)
class SupportReport:
    ok: bool
    tick: Optional[int] = None
    atom: Optional[frozenset] = None
    child: Optional[frozenset] = None


def check_condition_support(eb: EnlargedBasis) -> SupportReport:
    """Child-support equality between base and enlarged left-limit atoms.

    For every alive enlarged atom C inside a base atom B, every child of B
    with positive conditional probability must meet C.  (The reverse
    implication is automatic: outcomes carry positive mass.)
    """
    base, enlarged = eb.base, eb.enlarged
    for k in range(1, base.K + 1):
        pre_b = base.pre(k)
        for c in enlarged.pre(k).blocks:
            if not eb.horizon.alive_block(c, k):
                continue
            for kid in base.child_map[(k, pre_b.block_of(min(c)))]:
                if not (kid & c):
                    return SupportReport(ok=False, tick=k, atom=c, child=kid)
    return SupportReport(ok=True)


def check_positivity(eb: EnlargedBasis, factors: DriftFactors):
    """1 + phi.jump(N) > 0 at every (outcome, tick <= horizon).

    Returns None or the first violating (outcome, tick).
    """
    if factors is None:
        raise FactorsMissing()
    for i in range(eb.space.n):
        for k in range(1, eb.base.K + 1):
            if not eb.alive(i, k):
                continue
            if ONE + factors.phi_dot_jump(i, k) <= ZERO:
                return (i, k)
    return None
