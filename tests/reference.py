"""Test-only references: calculus the engine never calls, a connector search, two instances.

The calculus here (bracket, compensated bracket, canonical decomposition,
pathwise product) states textbook identities the tests check the engine's
calculus against; no engine path computes them.  The connector search is
the engine's search as it stood before atoms with one child took the
flatness test: every alive atom goes through _atom_weights and the row
check.  The worked instances are small hand-built bases with exact golden
values.
"""

from __future__ import annotations

from dataclasses import dataclass

from driftlab.basis import (Filtration, Partition, Process, SampleSpace, StoppingTime,
                            alive_atoms)
from driftlab.calculus import _require_adapted, compensator
from driftlab.enlargement import EnlargedBasis
from driftlab.errors import DimensionMismatch, InternalInvariant
from driftlab.models import gen_initial_enlargement
from driftlab.rational import ONE, ZERO, Q
from driftlab.viability import ConnectorSearch, _atom_rows_violation, _atom_weights


# --- calculus ---

@dataclass(frozen=True)
class Decomposition:
    start: Process          # constant-in-time initial value
    martingale_part: Process
    drift_part: Process     # predictable, starts at 0


def canonical_decomposition(space: SampleSpace, filt: Filtration, X: Process) -> Decomposition:
    """X = X_0 + M + V with M a martingale null at 0 and V predictable null at 0."""
    _require_adapted(filt, X)
    V = compensator(space, filt, X)
    start = Process(X.dim, tuple(tuple(row[0] for _ in row) for row in X.values))
    M = X - start - V
    return Decomposition(start=start, martingale_part=M, drift_part=V)


def bracket(X: Process, Y: Process) -> Process:
    """Quadratic covariation; for vector inputs the result is row-major,
    component i*Y.dim + j holding [X_i, Y_j]."""
    dim = X.dim * Y.dim
    ticks = X.ticks

    def jmp(i, k):
        jx, jy = X.jump(i, k), Y.jump(i, k)
        return tuple(a * b for a in jx for b in jy)

    return Process.from_jumps(X.n, ticks, jmp, dim=dim)


def comp_bracket(space: SampleSpace, filt: Filtration, X: Process, Y: Process) -> Process:
    """Compensator of the quadratic covariation (the oblique bracket here)."""
    return compensator(space, filt, bracket(X, Y))


def pointwise_mul(Z: Process, S: Process) -> Process:
    """Scalar process times a (possibly vector) process, path by path."""
    if Z.dim != 1:
        raise DimensionMismatch("left factor must be scalar")
    rows = []
    for i in range(S.n):
        row = []
        for k in range(S.ticks + 1):
            z = Z.at(i, k)[0]
            row.append(tuple(z * s for s in S.at(i, k)))
        rows.append(tuple(row))
    return Process(S.dim, tuple(rows))


# --- connector search ---

def connector_search_reference(space: SampleSpace, filt: Filtration, S: Process,
                               horizon=None) -> ConnectorSearch:
    """find_structure_connector with every alive atom, one child or more, posed in full.

    Each atom's optimum comes from _atom_weights and each atom adds its row
    to _atom_rows_violation, as the search did before an atom with one
    child became a flatness test.
    """
    jump_of: dict = {}
    rows = []
    for k, b, kids in alive_atoms(filt, horizon):
        p = space.split(kids)
        s_jumps = S.child_jumps(k, kids)
        q = _atom_weights(p, s_jumps)
        if q is None:
            return ConnectorSearch(tick=k, atom=tuple(sorted(b)))
        if q is p:
            d_jumps = None
        else:
            d_jumps = [(ONE - qh / ph,) for qh, ph in zip(q, p)]
            jump_of.update(((k, kid), dj) for kid, (dj,) in zip(kids, d_jumps))
        rows.append((k, b, kids, p, d_jumps, s_jumps))
    bad = _atom_rows_violation(rows)
    if bad is not None:
        raise InternalInvariant("assembled connector fails its own check", **bad)
    return ConnectorSearch(n=space.n, filt=filt, jumps=jump_of)


# --- worked instances ---

def worked_six_point() -> dict:
    """Six uniform outcomes, one tick, enlargement by a two-valued variable.

    The base tick splits the space into {0,1,2} and {3,4,5}; the revealed
    variable groups {0,1,3} against {2,4,5}.  All downstream quantities
    (multiplier rows, connector jumps, deflator values) have small exact
    values, making this the reference instance for golden tests.
    """
    space = SampleSpace(tuple(f"w{i}" for i in range(6)), [Q(1, 6)] * 6)
    trivial = Partition([range(6)])
    at1 = Partition([{0, 1, 2}, {3, 4, 5}])
    base = Filtration(trivial, ((trivial, at1),))
    xi = [1, 1, 0, 1, 0, 0]
    eb = gen_initial_enlargement(space, base, xi)
    asset = Process(1, tuple(
        ((ZERO,), (Q(1, 2),) if i in (0, 1, 2) else (Q(-1, 2),)) for i in range(6)))
    return {"space": space, "base": base, "eb": eb, "xi": xi, "asset": asset}


def worked_four_point() -> dict:
    """Four uniform outcomes, one tick, enlargement that breaks support.

    The enlarged left-limit isolates outcome 3 before the base tick splits
    {0,1} from {2,3}; on the singleton atom the child {0,1} is missing, so
    the verdict is false with witness atom {3}.
    """
    space = SampleSpace(tuple(f"w{i}" for i in range(4)), [Q(1, 4)] * 4)
    trivial = Partition([range(4)])
    at1 = Partition([{0, 1}, {2, 3}])
    base = Filtration(trivial, ((trivial, at1),))
    g_pre = Partition([{0, 1, 2}, {3}])
    enlarged = Filtration(trivial, ((g_pre, g_pre.meet(at1)),))
    eb = EnlargedBasis(space=space, base=base, enlarged=enlarged,
                       horizon=StoppingTime.constant(4, 1))
    return {"space": space, "base": base, "eb": eb}
