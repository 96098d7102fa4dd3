"""Filtration enlargement: drift operators and their multiplier factorization.

An enlarged basis couples two filtrations on one space, the enlarged one
refining the base one at every level, plus a horizon stopping time.  For a
base martingale X the drift operator accumulates the enlarged-side
conditional jump means on the closed interval [0, horizon]; subtracting it
restores the martingale property in the enlarged filtration.

The factorization expresses every such drift as phi . [N, X]-compensator
with N the canonical representation process W of the base filtration.
W's conditional jump covariances are multinomial, 4^-k (diag p - p p^T),
so phi per (tick, enlarged left-limit atom) has a closed form, read as a
density: 1 + phi.jump(W) = pbar_h / p_h.  Its target, W's enlarged jump
mean, also gives W minus its drift, against which the enlarged connector
is an integral (viability builds that connector from its closed form).
The atom table pairing each alive enlarged atom with its base atom, the
support report, the factors and the connector for the bare driving
process are cached on the enlarged basis; every per-atom pass reads the
table.  The compensator and connector transfer checks share one pass,
comparing per-child jump means over an enlarged atom and its base atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .basis import (Diagnostics, Filtration, Process, SampleSpace, StoppingTime,
                    alive_atoms, horizon_or_last_tick, is_stopping_time, require_shape,
                    validate)
from .calculus import compensator, is_adapted, is_martingale, jump_mean, stop
from .errors import NotAMartingale, NotAdapted, Unsolvable
from .rational import ONE, ZERO, Q, _dot
from .representation import RepresentationProcess, padded


@dataclass(frozen=True)
class EnlargedBasis:
    """A base and an enlarged filtration on one space, with a horizon stopping time.

    Facts that depend only on the basis (and the row width) are computed
    once and cached on it, lazily, each written by one function: the atom
    table (_atoms), the support report, solve_factors' DriftFactors and
    the connector for the bare driving process (viability._bare_connector).
    An entry is written only once its value is complete, so a call that
    raises leaves none for it.  The caches are not init fields, so a basis
    rebuilt from its fields starts without them.
    """

    space: SampleSpace
    base: Filtration
    enlarged: Filtration
    horizon: StoppingTime

    def alive(self, i: int, k: int) -> bool:
        return self.horizon.geq(i, k)

    @cached_property
    def _factors(self) -> dict:
        """width -> solve_factors' DriftFactors, valid for the rep whose W is its N."""
        return {}

    @cached_property
    def _connectors(self) -> dict:
        """None -> the enlarged connector Y for D = None (viability._bare_connector)."""
        return {}

    @cached_property
    def _atoms(self) -> dict:
        """(k, c) -> (ekids, b, bkids, inside) per alive enlarged atom c, in alive_atoms order.

        ekids are c's enlarged children, b the base pre(k)-atom holding c,
        bkids b's children and inside their intersections with c (empty
        where a child misses c), so space.split gives p and pbar.  The one
        place that maps an enlarged atom to its base atom; a horizon of the
        wrong length (horizon_or_last_tick) or a straddling one raises here.
        """
        base = self.base
        horizon = horizon_or_last_tick(self.space, self.enlarged, self.horizon)
        table = {}
        for k, c, ekids in alive_atoms(self.enlarged, horizon):
            b = base.pre(k).block_of(min(c))
            bkids = base.child_map[(k, b)]
            table[(k, c)] = (ekids, b, bkids, tuple(kid & c for kid in bkids))
        return table

    @cached_property
    def _support(self) -> "SupportReport":
        """check_condition_support's report: the first empty intersection in the atom table."""
        for (k, c), (_, _, bkids, inside) in self._atoms.items():
            if not all(inside):
                kid = bkids[inside.index(frozenset())]
                return SupportReport(ok=False, tick=k, atom=c, child=kid)
        return SupportReport(ok=True)


def validate_enlargement(eb: EnlargedBasis) -> Diagnostics:
    errors = list(validate(eb.space, eb.base, eb.enlarged).errors)
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
    if not errors and eb.horizon.n != eb.space.n:
        errors.append("NOT_A_RANDOM_TIME: horizon must assign a time to every outcome")
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
    """Multiplier row phi against the driving process N, and Wt = N - drift_operator(eb, N).

    On child h, 1 + phi.jump(N) = pbar_h / p_h: the child's enlarged over base probability.
    """
    N: Process    # the canonical representation process of the base filtration
    phi: Process  # enlarged-predictable multiplier row, dim = N.dim
    Wt: Process   # jump(N) minus its enlarged jump mean up to the horizon, jump(N) after

    def phi_dot_jump(self, i: int, k: int) -> Q:
        return _dot(self.phi.at(i, k), self.N.jump(i, k))


def _multinomial_solve(p, r, message: str, **where) -> tuple:
    """Minimum-norm x with (diag p - p p^T) x = r, for a probability row p.

    The kernel is the all-ones direction on the positive slots plus every
    zero slot, so x is r / p less its unweighted mean on the positive
    slots, and zero elsewhere.  The exact residual p_h (x_h - p.x) == r_h
    is checked on every slot: r with a nonzero sum, or nonzero on a zero
    slot, raises Unsolvable(message, **where).
    """
    ratio = {h: rh / ph for h, (ph, rh) in enumerate(zip(p, r)) if ph}
    mean = sum(ratio.values(), ZERO) / len(ratio)
    x = tuple(ratio[h] - mean if h in ratio else ZERO for h in range(len(p)))
    px = _dot(p, x)
    if any(ph * (xh - px) != rh for ph, xh, rh in zip(p, x, r)):
        raise Unsolvable(message, **where)
    return x


def solve_factors(eb: EnlargedBasis, rep: RepresentationProcess) -> DriftFactors:
    """Minimum-norm multiplier per (tick, enlarged left-limit atom), and W minus its drift.

    phi solves V phi = gamma, with V = 4^-k (diag p - p p^T), W's base jump
    covariance, and gamma = 2^-k (pbar - p), its enlarged jump mean, so
    phi_h = 2^k (pbar_h / p_h - mean of pbar / p over live slots) and
    1 + phi.jump(W) = pbar_h / p_h, Jacod's conditional density.  The
    system is consistent by construction, so a failed residual is raised
    as an internal error rather than reported.

    p and pbar are the splits of the atom table's bkids and inside as W-slot
    rows; W jumps by 2^-k (e_h - p) on child h, so gamma is exact.

    The factors are solved once per basis and width and cached on eb.  The
    cached entry is returned only to a rep whose W is its N; any other rep
    is solved afresh and replaces it.
    """
    width = rep.width
    cached = eb._factors.get(width)
    if cached is not None and cached.N is rep.W:
        return cached
    space, enlarged = eb.space, eb.enlarged
    phi_by_atom: dict = {}
    minus_gamma: dict = {}  # the drift's jumps, negated, on the alive atoms' children
    for (k, c), (ekids, _, bkids, inside) in eb._atoms.items():
        p = padded(width, space.split(bkids))
        pbar = padded(width, space.split(inside))
        gamma = tuple(Q(1, 2 ** k) * (pb - ph) for pb, ph in zip(pbar, p))
        phi_by_atom[(k, c)] = _multinomial_solve(
            p, [Q(4 ** k) * g for g in gamma],
            "factor system inconsistent", tick=k, atom=sorted(c))
        down = tuple(-g for g in gamma)
        minus_gamma.update(((k, kid), down) for kid in ekids)
    factors = eb._factors[width] = DriftFactors(
        N=rep.W, phi=Process.from_atom_table(space.n, enlarged, phi_by_atom, width),
        Wt=rep.W + Process.from_jump_table(space.n, enlarged, minus_gamma, width))
    return factors


def factorization_check(eb: EnlargedBasis, factors: DriftFactors, X: Process):
    """Drift of the base martingale X == phi . [N, X]-compensator increments, on [0, horizon].

    For a base martingale the base compensator increment is zero, so this
    is the compensator transfer identity; returns None or the first
    mismatching (outcome, tick, component).
    """
    if not is_martingale(eb.space, eb.base, X):
        raise NotAMartingale("drift factorization expects a base-filtration martingale")
    return compensator_transfer_check(eb, factors, X)


def compensator_transfer_check(eb: EnlargedBasis, factors: DriftFactors, A: Process):
    """Enlarged-side compensator == base compensator + phi . [N, A]-compensator.

    Checked per child on [0, horizon] for a base-adapted A (_transfer_mismatch);
    returns None on success or the first mismatching (outcome, tick, component).
    """
    require_shape(eb.space, eb.base, A)
    if not is_adapted(eb.base, A):
        raise NotAdapted()
    return _transfer_mismatch(eb, factors, A, None)


def _transfer_mismatch(eb: EnlargedBasis, factors: DriftFactors, X: Process,
                       connector: Optional[tuple[Process, Process]]):
    """First mismatching (outcome, tick, component) on [0, horizon], or None.

    On each alive enlarged atom c inside the base atom b, X's jump mean over
    c's children, weights pbar_e, must equal its mean over b's, weights
    p_h (1 + phi.jump_h(N)).  Given connector = (Y, D) the weights are
    pbar_e (y_e - mean) and p_h (d_h - mean), y = jump(Y) and
    d = jump(D) + phi.jump(N), so both sides are jump covariances against X.
    Both sides are constant on c.  Mismatches are ordered by tick, then
    component, then outcome.
    """
    bad: list = []
    for (k, c), (ekids, _, bkids, _) in eb._atoms.items():
        pbar, p = eb.space.split(ekids), eb.space.split(bkids)
        phi = factors.phi.at(min(c), k)
        tilt = [_dot(phi, nj) for nj in factors.N.child_jumps(k, bkids)]
        if connector is None:
            w_e, w_b = pbar, [ph * (ONE + t) for ph, t in zip(p, tilt)]
        else:
            Y, D = connector
            y = [yj for (yj,) in Y.child_jumps(k, ekids)]
            d = [dj + t for (dj,), t in zip(D.child_jumps(k, bkids), tilt)]
            y_mean, d_mean = _dot(pbar, y), _dot(p, d)
            w_e = [pe * (yj - y_mean) for pe, yj in zip(pbar, y)]
            w_b = [ph * (dj - d_mean) for ph, dj in zip(p, d)]
        lhs, rhs = jump_mean(w_e, X.child_jumps(k, ekids)), jump_mean(w_b, X.child_jumps(k, bkids))
        bad += [(min(c), k, comp) for comp in range(len(lhs)) if lhs[comp] != rhs[comp]]
    return min(bad, key=lambda r: (r[1], r[2], r[0]), default=None)


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
    implication is automatic: outcomes carry positive mass.)  The report
    is computed once per basis and cached on it.
    """
    return eb._support


def check_positivity(eb: EnlargedBasis, factors: DriftFactors):
    """1 + phi.jump(N) > 0 at every (outcome, tick <= horizon).

    Returns None or the first violating (outcome, tick).
    """
    for i in range(eb.space.n):
        for k in range(1, eb.base.K + 1):
            if not eb.alive(i, k):
                continue
            if ONE + factors.phi_dot_jump(i, k) <= ZERO:
                return (i, k)
    return None
