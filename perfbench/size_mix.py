"""Estimate the size mixes that workloads.py hard-codes.

    python3 perfbench/size_mix.py

An instance's cost follows its atom count closely: the log-log correlation
with wall time is about 0.95 for a market's alive atoms and for the
enlarged atoms of a support-clean instance, 0.8 for a failing one.  So
every pool is filled to fixed quotas of atom-count ranges.  This script
draws DRAWS instances the way the acceptance tests do, from a fixed seed.
For single-filtration markets, and for enlarged instances of each kind
(support-clean, failing the support condition, forced to fail it), it
prints the ranges (upper bound of the atom count, share of draws) that
split the draws into BUCKETS about equal shares, with the top 5% split
into two ranges of its own because the slowest instances set p95.  It
also prints the share of support-clean instances per kind, because a
clean instance costs as much as a failing one with more atoms.  Rerun it
when a generator in driftlab.models changes.
"""

from __future__ import annotations

import collections
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from driftlab import enlargement, models  # noqa: E402

DRAWS = 60000
BUCKETS = 16


def _ranges(counts: collections.Counter, cuts: list) -> list:
    """(upper atom count, share) ranges that close at the first value reaching each cut."""
    total = sum(counts.values())
    out, acc, last = [], 0, 0
    pending = list(cuts)
    for value in sorted(counts):
        acc += counts[value]
        if pending and acc >= pending[0] * total:
            out.append((value, round((acc - last) / total, 4)))
            last = acc
            while pending and acc >= pending[0] * total:
                pending.pop(0)
    # the last range is open-ended and takes the remaining share
    if last < total:
        out.append(None)
    out[-1] = (workloads.OPEN_END, round(1 - sum(s for _, s in out[:-1]), 4))
    return out


def _literal(ranges: list, column: int) -> str:
    """The ranges as a tuple literal starting at `column`, wrapped at 88 columns."""
    items = [f"({'OPEN_END' if upper == workloads.OPEN_END else upper}, {share})"
             for upper, share in ranges]
    lines, line = [], "("
    for item in items:
        if column + len(line) + len(item) + 2 > 88:
            lines.append(line.rstrip())
            line = " "
        line += item + ", "
    lines.append(line[:-2] + ")")
    return ("\n" + " " * column).join(lines)


def main() -> int:
    cuts = [b / BUCKETS for b in range(1, BUCKETS)] + [0.95, 0.975]
    rng = random.Random("size-mix")
    market = collections.Counter()
    for _ in range(DRAWS):
        space, filt, horizon = workloads.market_structure(
            rng, rng.randint(2, 12), rng.randint(1, 4), rng.random() < 0.3)
        market[workloads.alive_atoms(filt, horizon)] += 1
    counts = {population: {kind: collections.Counter() for kind in workloads.KINDS}
              for population in ("clean", "failing", "forced")}
    for kind in workloads.KINDS:
        for seed in range(DRAWS // 3):
            eb = models.gen_random_instance(models.GeneratorConfig(
                seed=seed, enlargement_kind=kind))
            population = ("clean" if enlargement.check_condition_support(eb).ok
                          else "failing")
            counts[population][kind][workloads.enlarged_atoms(eb)] += 1
            eb = models.gen_random_instance(models.GeneratorConfig(
                seed=seed, enlargement_kind=kind, force_condition_failure=True))
            counts["forced"][kind][workloads.enlarged_atoms(eb)] += 1
    print(f"MARKET_MIX = {_literal(_ranges(market, cuts), 13)}")
    shares = {kind: round(sum(counts["clean"][kind].values()) / (DRAWS // 3), 4)
              for kind in workloads.KINDS}
    print("CLEAN_SHARE = {" + ", ".join(f'"{k}": {v}' for k, v in shares.items()) + "}")
    print("ENLARGED_MIX = {")
    for population, by_kind in counts.items():
        print(f'    "{population}": {{')
        for kind in workloads.KINDS:
            print(f'        "{kind}": {_literal(_ranges(by_kind[kind], cuts), len(kind) + 12)},')
        print("    },")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
