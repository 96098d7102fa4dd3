"""Canonical representation process for martingales on a finite grid.

At every tick each left-limit atom splits into at most d+1 children.  The
driving process W has one component per child slot: slot h of an atom is
its h-th child in `Filtration.child_map` (ordered by smallest outcome), and
the slots past its last child are zero.  W's jump at tick k on child h is
2^(-k) * (e_h - p), p the atom's child probabilities (`SampleSpace.split`),
padded with zeros to W's width.  Every martingale null at 0 is a
stochastic integral against W; coefficients are chosen with minimum
Euclidean norm per (tick, atom).
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import Filtration, Process, SampleSpace, alive_atoms
from .calculus import is_martingale, stoch_integral
from .errors import DimensionMismatch, NotAMartingale
from .rational import ONE, ZERO, Q


@dataclass(frozen=True)
class RepresentationProcess:
    space: SampleSpace
    filt: Filtration
    width: int  # d + 1, the maximal child count; an atom's children fill its first slots
    W: Process  # the driving process, dim = width


def multiplicity(filt: Filtration) -> int:
    """Maximal number of children of any left-limit atom across all ticks."""
    return max([1, *map(len, filt.child_map.values())])


def padded(width: int, row) -> tuple:
    """A per-child row as a W-slot row: zero past the atom's last child."""
    return (*row, *(ZERO,) * (width - len(row)))


def build_representation(space: SampleSpace, filt: Filtration) -> RepresentationProcess:
    width = multiplicity(filt)
    jump_of: dict = {}
    half = Q(1, 2)
    for k, _, kids in alive_atoms(filt):
        p = padded(width, space.split(kids))
        w = half ** k
        for h, kid in enumerate(kids):
            jump_of[(k, kid)] = tuple(w * ((ONE if g == h else ZERO) - pg)
                                      for g, pg in enumerate(p))

    W = Process.from_jump_table(space.n, filt, jump_of, width)
    return RepresentationProcess(space=space, filt=filt, width=width, W=W)


def fired_component(rep: RepresentationProcess, k: int, b: frozenset[int], slot: int) -> Process:
    """Component `slot` of W fired only at tick k on the left-limit atom b, null elsewhere."""
    table = {(k, kid): rep.W.jump(min(kid), k)[slot] for kid in rep.filt.child_map[(k, b)]}
    return Process.from_jump_table(rep.space.n, rep.filt, table)


def represent(rep: RepresentationProcess, X: Process) -> Process:
    """Predictable integrand H with (H . W) = X - X_0, minimum norm per atom.

    The coefficient equivalence class at a (tick, atom) is a shift along the
    all-ones direction on the atom's child slots plus anything on the slots
    past them; the norm minimizer centers the jump values and zeroes the rest.
    """
    space, filt = rep.space, rep.filt
    if X.dim != 1:
        raise DimensionMismatch("representation works componentwise")
    if not is_martingale(space, filt, X):
        raise NotAMartingale()

    coeff: dict = {}
    two = Q(2)
    for k, b, kids in alive_atoms(filt):
        xs = [x for (x,) in X.child_jumps(k, kids)]
        mean = sum(xs, ZERO) / len(xs)
        scale = two ** k
        coeff[(k, b)] = padded(rep.width, [scale * (x - mean) for x in xs])

    H = Process.from_atom_table(space.n, filt, coeff, rep.width)
    rebuilt = stoch_integral(filt, H, rep.W)
    for i in range(space.n):
        for k in range(filt.K + 1):
            if rebuilt.at(i, k)[0] != X.at(i, k)[0] - X.at(i, 0)[0]:
                raise NotAMartingale("reconstruction failed", outcome=i, tick=k)
    return H
