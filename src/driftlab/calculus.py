"""Discrete stochastic calculus relative to a filtration with left limits.

Martingality means E[increment | pre-tick sigma-algebra] = 0 at every tick,
exactly.  On a finite grid every local martingale is a martingale (the
integrability conditions hold automatically), so no localization appears
anywhere; this is reported rather than tested.

An adapted process jumps by one value on each child of a left-limit atom, so
every conditional jump mean in the engine is one per-child sum, jump_mean.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .basis import (Filtration, Process, SampleSpace, StoppingTime, alive_atoms,
                    horizon_or_last_tick)
from .errors import DimensionMismatch, NotARandomTime, NotAdapted, NotPredictable
from .rational import ONE, ZERO, Q, _dot


def is_adapted(filt: Filtration, X: Process) -> bool:
    for k in range(filt.K + 1):
        part = filt.at(k)
        if not part.is_measurable([X.at(i, k) for i in range(X.n)]):
            return False
    return True


def is_predictable(filt: Filtration, X: Process) -> bool:
    """Value at tick k is measurable for the left-limit algebra pre(k)."""
    for k in range(filt.K + 1):
        part = filt.pre(k)
        if not part.is_measurable([X.at(i, k) for i in range(X.n)]):
            return False
    return True


def _require_adapted(filt: Filtration, X: Process) -> None:
    if not is_adapted(filt, X):
        raise NotAdapted()


def jump_mean(weights: Sequence[Q], jumps: Sequence[tuple[Q, ...]]) -> tuple[Q, ...]:
    """sum_h weights_h * jumps_h per component, over one atom's children."""
    return tuple([_dot(weights, col) for col in zip(*jumps)])


def martingale_violation(space: SampleSpace, filt: Filtration, X: Process,
                         horizon: Optional[StoppingTime] = None):
    """First (tick, atom, component) with a nonzero conditional increment, else None.

    With a horizon, atoms past it are ignored atom-wise (the process is
    examined as stopped at the horizon).  X is checked adapted first, so
    its jump takes one value per child.
    """
    if horizon is not None:  # without one, every atom is alive
        horizon = horizon_or_last_tick(space, filt, horizon)
    _require_adapted(filt, X)
    for k, b, kids in alive_atoms(filt, horizon):
        for c, mean in enumerate(jump_mean(space.split(kids), X.child_jumps(k, kids))):
            if mean != ZERO:
                return (k, b, c)
    return None


def is_martingale(space: SampleSpace, filt: Filtration, X: Process,
                  horizon: Optional[StoppingTime] = None) -> bool:
    return martingale_violation(space, filt, X, horizon) is None


def compensator(space: SampleSpace, filt: Filtration, A: Process) -> Process:
    """Predictable dual projection: cumulative E[jump | pre(k)], starting at 0.

    A is checked adapted first, so its jump takes one value per child.
    """
    _require_adapted(filt, A)
    table: dict = {}
    for k, _, kids in alive_atoms(filt):
        mean = jump_mean(space.split(kids), A.child_jumps(k, kids))
        table.update(((k, kid), mean) for kid in kids)
    return Process.from_jump_table(A.n, filt, table, A.dim)


def stoch_integral(filt: Filtration, H: Process, X: Process) -> Process:
    """(H . X)_k = sum over j <= k of <H_j, jump_j(X)>; H must be predictable."""
    if H.dim != X.dim:
        raise DimensionMismatch("integrand and integrator dims differ")
    if not is_predictable(filt, H):
        raise NotPredictable()
    return Process.from_jumps(
        X.n, X.ticks,
        lambda i, k: _dot(H.at(i, k), X.jump(i, k)))


def doleans_exp(X: Process) -> Process:
    """Stochastic exponential: product of (1 + jump) along the path."""
    if X.dim != 1:
        raise DimensionMismatch("stochastic exponential is scalar")
    rows = []
    for i in range(X.n):
        cur = ONE
        row = [(cur,)]
        for k in range(1, X.ticks + 1):
            cur = cur * (ONE + X.jump(i, k)[0])
            row.append((cur,))
        rows.append(tuple(row))
    return Process(1, tuple(rows))


def stop(X: Process, T: StoppingTime) -> Process:
    """Freeze the path at the stopping time; one of the wrong length raises NotARandomTime."""
    if T.n != X.n:
        raise NotARandomTime("must assign a time to every outcome", outcomes=X.n, values=T.n)
    rows = []
    for i in range(X.n):
        v = T.values[i]
        row = [X.at(i, min(k, v) if v is not None else k) for k in range(X.ticks + 1)]
        rows.append(tuple(row))
    return Process(X.dim, tuple(rows))
