"""Canonical representation process for martingales on a finite grid.

At every tick each left-limit atom splits into at most d+1 children.  The
driving process W has one component per child slot; its jump at tick k on
an atom is 2^(-k) * (child indicator - conditional child probability),
with child slots ordered by smallest outcome index and missing slots
padded by empty children of probability zero.  Every martingale null at 0
is a stochastic integral against W; coefficients are chosen with minimum
Euclidean norm per (tick, atom).
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import Filtration, Process, SampleSpace, alive_atoms, atom_split
from .calculus import is_martingale, stoch_integral
from .errors import DimensionMismatch, NotAMartingale
from .rational import ONE, ZERO, Q


@dataclass(frozen=True)
class RepresentationProcess:
    space: SampleSpace
    filt: Filtration
    width: int  # d + 1, the maximal child count
    children: dict  # (tick, atom) -> tuple of child blocks, padded with empty sets
    probs: dict     # (tick, atom) -> tuple of conditional child probabilities
    W: Process      # the driving process, dim = width


def multiplicity(space: SampleSpace, filt: Filtration) -> int:
    """Maximal number of children of any left-limit atom across all ticks."""
    return max([1, *map(len, filt.child_map.values())])


def build_representation(space: SampleSpace, filt: Filtration) -> RepresentationProcess:
    width = multiplicity(space, filt)
    children: dict = {}
    probs: dict = {}
    jump_of: dict = {}
    half = Q(1, 2)
    for k, b in alive_atoms(filt):
        kids, p = atom_split(space, filt, k, b)
        pad = width - len(kids)
        children[(k, b)] = kids + (frozenset(),) * pad
        probs[(k, b)] = p + (ZERO,) * pad
        w = half ** k
        for h, kid in enumerate(kids):
            jump_of[(k, kid)] = tuple(w * ((ONE if g == h else ZERO) - pg)
                                      for g, pg in enumerate(probs[(k, b)]))

    W = Process.from_jump_table(space.n, filt, jump_of, width)
    return RepresentationProcess(space=space, filt=filt, width=width,
                                 children=children, probs=probs, W=W)


def fired_component(rep: RepresentationProcess, k: int, b: frozenset[int], slot: int) -> Process:
    """Component `slot` of W fired only at tick k on the left-limit atom b, null elsewhere."""
    table = {(k, kid): rep.W.jump(min(kid), k)[slot] for kid in rep.children[(k, b)] if kid}
    return Process.from_jump_table(rep.space.n, rep.filt, table)


def represent(rep: RepresentationProcess, X: Process) -> Process:
    """Predictable integrand H with (H . W) = X - X_0, minimum norm per atom.

    The coefficient equivalence class at a (tick, atom) is a shift along the
    all-ones direction on the live child slots plus anything on dead slots;
    the norm minimizer centers the jump values and zeroes dead slots.
    """
    space, filt = rep.space, rep.filt
    if X.dim != 1:
        raise DimensionMismatch("representation works componentwise")
    if not is_martingale(space, filt, X):
        raise NotAMartingale()

    coeff: dict = {}
    two = Q(2)
    for k, b in alive_atoms(filt):
        kids = rep.children[(k, b)]
        live = [h for h, kid in enumerate(kids) if kid]
        xs = {h: X.jump(min(kids[h]), k)[0] for h in live}
        mean = sum((xs[h] for h in live), ZERO) / len(live)
        scale = two ** k
        coeff[(k, b)] = tuple(
            scale * (xs[h] - mean) if h in live else ZERO for h in range(rep.width))

    H = Process.from_atom_table(space.n, filt, coeff, rep.width)
    rebuilt = stoch_integral(filt, H, rep.W)
    for i in range(space.n):
        for k in range(filt.K + 1):
            if rebuilt.at(i, k)[0] != X.at(i, k)[0] - X.at(i, 0)[0]:
                raise NotAMartingale("reconstruction failed", outcome=i, tick=k)
    return H
