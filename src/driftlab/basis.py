"""Finite filtered probability spaces with explicit left limits.

A sigma-algebra on a finite outcome set is stored as the partition of its
atoms.  A filtration supplies, for every tick k >= 1, both the left-limit
partition (pre) and the tick partition (at), so the refinement chain is

    initial <= pre(1) <= at(1) <= pre(2) <= at(2) <= ... <= at(K)

where "<=" means "is refined by the right-hand side".  Processes carry
exact rational values; all probabilistic identities downstream are tested
with equality, never with tolerances.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

# InternalInvariant is re-exported for the oracle, whose only engine imports
# are basis, linfeas and rational.
from .errors import (DimensionMismatch, InternalInvariant, NotARandomTime,  # noqa: F401
                     NotAStoppingTime)
from .rational import ONE, ZERO, Q, _dot, rat


def _as_blocks(blocks: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    # canonical order: by smallest member
    bs = [frozenset(b) for b in blocks]
    return tuple(sorted(bs, key=min))


@dataclass(frozen=True)
class SampleSpace:
    """Finite outcome set with strictly positive rational probabilities."""

    outcomes: tuple[str, ...]
    prob: tuple[Q, ...]

    def __init__(self, outcomes: Sequence[str], prob: Sequence):
        object.__setattr__(self, "outcomes", tuple(outcomes))
        object.__setattr__(self, "prob", tuple(rat(p) if isinstance(p, (int, str)) else p for p in prob))

    @property
    def n(self) -> int:
        return len(self.outcomes)

    def mass(self, event: frozenset[int]) -> Q:
        """P(event), the sum of its outcomes' probabilities."""
        return sum((self.prob[i] for i in event), ZERO)

    @cached_property
    def _splits(self) -> dict[tuple[frozenset[int], ...], tuple[Q, ...]]:
        """Children of an atom -> their probabilities conditional on the atom (split)."""
        return {}

    def split(self, kids: tuple[frozenset[int], ...]) -> tuple[Q, ...]:
        """The probabilities of an atom's children kids conditional on the atom, cached by kids."""
        p = self._splits.get(kids)
        if p is None:
            masses = [self.mass(kid) for kid in kids]
            total = sum(masses, ZERO)
            p = self._splits[kids] = tuple(m / total for m in masses)
        return p


@dataclass(frozen=True)
class Partition:
    """Partition of outcome indices; blocks are the sigma-algebra atoms."""

    blocks: tuple[frozenset[int], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        object.__setattr__(self, "blocks", _as_blocks(blocks))

    @cached_property
    def _index(self) -> dict[int, int]:
        out = {}
        for bi, b in enumerate(self.blocks):
            for i in b:
                out[i] = bi
        return out

    def block_of(self, i: int) -> frozenset[int]:
        return self.blocks[self._index[i]]

    def covers(self, n: int) -> bool:
        seen = set()
        for b in self.blocks:
            if not b or (b & seen):
                return False
            seen |= b
        return seen == set(range(n))

    def refines(self, coarser: "Partition") -> bool:
        """True when every block here sits inside one block of `coarser`."""
        for b in self.blocks:
            target = coarser._index.get(min(b))
            if target is None or not b <= coarser.blocks[target]:
                return False
        return True

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement (join of the sigma-algebras)."""
        out = []
        for a in self.blocks:
            for b in other.blocks:
                c = a & b
                if c:
                    out.append(c)
        return Partition(out)

    def is_measurable(self, values: Sequence) -> bool:
        firsts = [values[next(iter(b))] for b in self.blocks]
        return all(values[i] == v for b, v in zip(self.blocks, firsts) for i in b)

    def event_measurable(self, event: frozenset[int]) -> bool:
        return all(b <= event or not (b & event) for b in self.blocks)


@dataclass(frozen=True)
class Filtration:
    """Refinement chain with explicit left limits at every tick."""

    initial: Partition
    ticks: tuple[tuple[Partition, Partition], ...]  # (pre, at) per tick, 1-based

    def __init__(self, initial: Partition, ticks: Sequence[tuple[Partition, Partition]]):
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "ticks", tuple((p, a) for (p, a) in ticks))

    @property
    def K(self) -> int:
        return len(self.ticks)

    def at(self, k: int) -> Partition:
        return self.initial if k == 0 else self.ticks[k - 1][1]

    def pre(self, k: int) -> Partition:
        # convention: pre(0) := at(0)
        return self.initial if k == 0 else self.ticks[k - 1][0]

    @cached_property
    def child_map(self) -> dict[tuple[int, frozenset[int]], tuple[frozenset[int], ...]]:
        """(k, pre(k)-atom) -> its at(k)-children, ordered by smallest member."""
        out = {}
        for k in range(1, self.K + 1):
            pre = self.pre(k)
            kids: dict = {b: [] for b in pre.blocks}
            for c in self.at(k).blocks:
                kids[pre.block_of(min(c))].append(c)
            out.update(((k, b), tuple(cs)) for b, cs in kids.items())
        return out

    def chain(self) -> list[tuple[str, Partition]]:
        out = [("at(0)", self.initial)]
        for k in range(1, self.K + 1):
            out.append((f"pre({k})", self.pre(k)))
            out.append((f"at({k})", self.at(k)))
        return out


def _as_vector(v) -> tuple[Q, ...]:
    if isinstance(v, tuple):
        return v
    if isinstance(v, (list,)):
        return tuple(v)
    return (v,)


def _checked_row(row: tuple, dim: int) -> tuple:
    """The row with each element through _as_vector; the first of the wrong length raises."""
    out = tuple(map(_as_vector, row))
    for x in out:
        if len(x) != dim:
            raise DimensionMismatch(f"expected dim {dim}, got {len(x)}")
    return out


@dataclass(frozen=True)
class Process:
    """Vector-valued path family: values[omega][tick] is a dim-tuple.

    The constructor takes one row per outcome and one element per tick,
    and checks them in one pass, in row-major order:
    - a tuple element is kept as it is; a list becomes a tuple and any
      other element a 1-tuple (see _as_vector);
    - the first element whose length is not dim raises DimensionMismatch;
    - a row whose length differs from row 0's raises DimensionMismatch.
    Values are not converted: callers pass rationals.
    """

    dim: int
    values: tuple[tuple[tuple[Q, ...], ...], ...]

    def __init__(self, dim: int, values):
        rows = []
        for row in values:
            row = tuple(row)
            for x in row:
                if x.__class__ is not tuple or len(x) != dim:
                    row = _checked_row(row, dim)
                    break
            if rows and len(row) != len(rows[0]):
                raise DimensionMismatch(
                    f"ragged rows: row {len(rows)} has {len(row)} values, row 0 has {len(rows[0])}")
            rows.append(row)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "values", tuple(rows))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def ticks(self) -> int:
        return len(self.values[0]) - 1

    def at(self, i: int, k: int) -> tuple[Q, ...]:
        return self.values[i][k]

    def scalar(self, i: int, k: int) -> Q:
        if self.dim != 1:
            raise DimensionMismatch("scalar access on vector process")
        return self.values[i][k][0]

    def jump(self, i: int, k: int) -> tuple[Q, ...]:
        """Increment at tick k; zero vector at k = 0 by convention."""
        if k == 0:
            return (ZERO,) * self.dim
        row = self.values[i]
        prev, cur = row[k - 1], row[k]
        if len(cur) == 1:
            return (cur[0] - prev[0],)
        return tuple(map(operator.sub, cur, prev))

    def child_jumps(self, k: int, kids: Sequence[frozenset[int]]) -> list[tuple[Q, ...]]:
        """The jump at tick k on each child, read at its smallest outcome (X adapted).

        As jump reads it: the zero vector at k = 0.
        """
        rows = [self.values[min(kid)] for kid in kids]
        if k == 0:
            return [(ZERO,) * self.dim for _ in rows]
        if self.dim == 1:
            return [(row[k][0] - row[k - 1][0],) for row in rows]
        return [tuple(map(operator.sub, row[k], row[k - 1])) for row in rows]

    def component(self, h: int) -> "Process":
        return Process(1, tuple(tuple((x[h],) for x in row) for row in self.values))

    def components(self) -> list["Process"]:
        return [self.component(h) for h in range(self.dim)]

    def _elementwise(self, other: "Process", op) -> "Process":
        if self.dim != other.dim:
            raise DimensionMismatch("process dims differ")
        if self.n != other.n or (self.n and self.ticks != other.ticks):
            raise DimensionMismatch("process shapes differ")
        return Process(self.dim, tuple(
            tuple(tuple(op(a, b) for a, b in zip(x, y)) for x, y in zip(r1, r2))
            for r1, r2 in zip(self.values, other.values)))

    def __add__(self, other: "Process") -> "Process":
        return self._elementwise(other, operator.add)

    def __sub__(self, other: "Process") -> "Process":
        return self._elementwise(other, operator.sub)

    def __neg__(self) -> "Process":
        return Process(self.dim, tuple(
            tuple(tuple(-a for a in x) for x in row) for row in self.values))

    def scale(self, q: Q) -> "Process":
        return Process(self.dim, tuple(
            tuple(tuple(q * a for a in x) for x in row) for row in self.values))

    @staticmethod
    def zeros(n: int, ticks: int, dim: int = 1) -> "Process":
        row = tuple(((ZERO,) * dim,) * (ticks + 1))
        return Process(dim, (row,) * n)

    @staticmethod
    def from_scalar_paths(paths: Sequence[Sequence]) -> "Process":
        return Process(1, tuple(tuple((rat(x) if isinstance(x, (int, str)) else x,) for x in row) for row in paths))

    @staticmethod
    def from_jumps(n: int, ticks: int, jumps, start=None, dim: int = 1) -> "Process":
        """Cumulative sums of jumps(i, k) for k = 1..ticks; start defaults to 0."""
        rows = []
        for i in range(n):
            cur = _as_vector(start(i) if callable(start) else ((ZERO,) * dim if start is None else start))
            row = [cur]
            for k in range(1, ticks + 1):
                j = _as_vector(jumps(i, k))
                cur = tuple(c + d for c, d in zip(cur, j))
                row.append(cur)
            rows.append(tuple(row))
        return Process(dim, tuple(rows))

    @staticmethod
    def from_atom_table(n: int, filt: "Filtration", table: dict, dim: int) -> "Process":
        """Predictable, zero at 0, worth table[(k, pre(k)-atom)] at tick k >= 1 (0 if absent)."""
        zero = (ZERO,) * dim
        rows = []
        for i in range(n):
            row = [zero]
            for k in range(1, filt.K + 1):
                row.append(table.get((k, filt.pre(k).block_of(i)), zero))
            rows.append(tuple(row))
        return Process(dim, tuple(rows))

    @staticmethod
    def from_jump_table(n: int, filt: "Filtration", table: dict, dim: int = 1) -> "Process":
        """Adapted, null at 0, jumping by table[(k, at(k)-atom)] at tick k (0 if absent).

        Built atom by atom: at(k) refines at(k-1), so an at(k)-atom c sits
        in one at(k-1)-atom, and its value at k is that atom's value plus
        the entry of c.
        """
        zero = (ZERO,) * dim
        values = {(0, b): zero for b in filt.initial.blocks}
        for k in range(1, filt.K + 1):
            prev = filt.at(k - 1)
            for c in filt.at(k).blocks:
                cur = values[(k - 1, prev.block_of(min(c)))]
                entry = table.get((k, c))
                if entry is not None:
                    entry = _as_vector(entry)
                    if len(entry) != dim:
                        raise DimensionMismatch(f"expected dim {dim}, got {len(entry)}")
                    cur = tuple(map(operator.add, cur, entry))
                values[(k, c)] = cur
        return Process.from_value_table(n, filt, values, dim)

    @staticmethod
    def from_value_table(n: int, filt: "Filtration", table: dict, dim: int = 1) -> "Process":
        """Adapted, worth table[(k, at(k)-atom)] at every tick k = 0..K (each key required)."""
        rows = [[None] * (filt.K + 1) for _ in range(n)]
        for k in range(filt.K + 1):
            for c in filt.at(k).blocks:
                value = table[(k, c)]
                for i in c:
                    rows[i][k] = value
        return Process(dim, rows)


INF = None  # stopping-time value for "never"


@dataclass(frozen=True)
class StoppingTime:
    """Tick-valued random time; value None means infinity."""

    values: tuple[Optional[int], ...]

    def __init__(self, values: Sequence[Optional[int]]):
        object.__setattr__(self, "values", tuple(values))

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def _leq(self) -> dict[int, frozenset[int]]:
        """k -> the event {T <= k} (leq_event)."""
        return {}

    def leq_event(self, k: int) -> frozenset[int]:
        """{T <= k}, built once per k; is_stopping_time and alive_block read it."""
        out = self._leq.get(k)
        if out is None:
            out = self._leq[k] = frozenset(
                i for i, v in enumerate(self.values) if v is not None and v <= k)
        return out

    def geq(self, i: int, k: int) -> bool:
        v = self.values[i]
        return v is None or v >= k

    def alive_block(self, b: frozenset[int], k: int) -> bool:
        """True when b misses {T <= k - 1}, so the time runs (>= k) on all of b; False inside it.

        For a stopping time that event is at(k-1)-measurable; pre(k), at(k)
        and every later partition refine at(k-1), so an atom of any of them
        is one or the other.  An atom that straddles it shows the time is
        not a stopping time of the atom's filtration: NotAStoppingTime.
        """
        stopped = self.leq_event(k - 1)
        if stopped.isdisjoint(b):
            return True
        if b <= stopped:
            return False
        raise NotAStoppingTime("atom straddles {T >= k}", tick=k, atom=sorted(b))

    @staticmethod
    def constant(n: int, k: Optional[int]) -> "StoppingTime":
        return StoppingTime((k,) * n)


@dataclass(frozen=True)
class Diagnostics:
    ok: bool
    errors: tuple[str, ...]


def validate(space: SampleSpace, *filts: Filtration) -> Diagnostics:
    """Check every structural invariant of the space, once, and of each filtration on it.

    Per filtration, the first broken refinement pair is reported when the
    space and that filtration's partitions are sound.
    """
    errors: list[str] = []
    if sum(space.prob, ZERO) != ONE:
        errors.append("BAD_PROBABILITY: total mass != 1")
    if any(p <= ZERO for p in space.prob):
        errors.append("BAD_PROBABILITY: nonpositive outcome mass")
    if len(set(space.outcomes)) != space.n:
        errors.append("BAD_PROBABILITY: duplicate outcome labels")
    space_ok = not errors
    for filt in filts:
        chain = filt.chain()
        broken = [f"REFINEMENT_BROKEN({name}): not a partition of the outcome set"
                  for name, part in chain if not part.covers(space.n)]
        errors.extend(broken)
        if space_ok and not broken:
            for (prev_name, prev), (name, part) in zip(chain, chain[1:]):
                if not part.refines(prev):
                    errors.append(f"REFINEMENT_BROKEN({name}): does not refine {prev_name}")
                    break
    return Diagnostics(ok=not errors, errors=tuple(errors))


def alive_atoms(filt: Filtration, horizon: Optional[StoppingTime] = None):
    """(k, b, kids) for every pre(k)-atom b alive at tick k, ticks ascending, then in block order.

    kids are b's at(k)-children, filt.child_map[(k, b)]; the walk iterates
    child_map, whose entries come in that order.  Without a horizon every
    atom is alive; with one, StoppingTime.alive_block tests each atom
    against {T <= k - 1}, and one that straddles it raises NotAStoppingTime.
    The walk keeps no state: a horizon gives the same walk, or raises at
    the same (tick, atom), on every call.
    """
    for (k, b), kids in filt.child_map.items():
        if horizon is None or horizon.alive_block(b, k):
            yield k, b, kids


def horizon_or_last_tick(space: SampleSpace, filt: Filtration,
                         horizon: Optional[StoppingTime]) -> StoppingTime:
    """The horizon; with none given, every outcome stops at the last tick.

    A horizon without one value per outcome raises NotARandomTime.
    """
    if horizon is not None and horizon.n != space.n:
        raise NotARandomTime("must assign a time to every outcome",
                             outcomes=space.n, values=horizon.n)
    return StoppingTime.constant(space.n, filt.K) if horizon is None else horizon


def require_shape(space: SampleSpace, filt: Filtration, X: Process) -> None:
    """DimensionMismatch unless X has space.n rows of filt.K + 1 values (no row is ragged: O(1))."""
    ticks = X.ticks if X.n else None
    if X.n != space.n or ticks != filt.K:
        raise DimensionMismatch(f"process has {X.n} rows and {ticks} ticks; the basis has "
                                f"{space.n} outcomes and {filt.K} ticks",
                                rows=X.n, ticks=ticks, outcomes=space.n, basis_ticks=filt.K)


def cond_expect(space: SampleSpace, partition: Partition, values: Sequence[Q]) -> tuple[Q, ...]:
    """Conditional expectation as a random variable, constant on each atom."""
    out: list[Q] = [ZERO] * space.n
    for b in partition.blocks:
        avg = _dot([space.prob[i] for i in b], [values[i] for i in b]) / space.mass(b)
        for i in b:
            out[i] = avg
    return tuple(out)


def cond_prob(space: SampleSpace, partition: Partition, event: frozenset[int]) -> tuple[Q, ...]:
    ind = [ONE if i in event else ZERO for i in range(space.n)]
    return cond_expect(space, partition, ind)


def is_stopping_time(filt: Filtration, T: StoppingTime) -> bool:
    """True when T gives one value per outcome and {T <= k} is at(k)-measurable at every tick."""
    return T.n == sum(map(len, filt.initial.blocks)) and all(
        filt.at(k).event_measurable(T.leq_event(k)) for k in range(filt.K + 1))
