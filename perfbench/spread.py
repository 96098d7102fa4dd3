"""Run-to-run spread of the end-to-end metrics, as the acceptance rule measures it.

    python3 perfbench/spread.py [--first-seed 0] [--workload NAME ...]
                                [--save FILE] [--against FILE]

Runs perfbench/run.py for BENCHMARK.json's run_seconds once per seed
(SEEDS seeds from --first-seed) and workload, one run at a time, and
prints per metric the median and the spread: the distance between the
first and third quartile of the values (statistics.quantiles, n=4) as a
share of their median.  BENCHMARK.json's bound and the spread/bound ratio
are printed beside it.  --save writes the values; --against compares the
medians with a saved set (change = new median / old median - 1, signed so
that positive is worse).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10  # runs per workload, as the acceptance rule counts them


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    old = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)

    values: dict = {}
    for workload in workloads:
        runs = [_run(workload, seed, bench["run_seconds"])
                for seed in range(args.first_seed, args.first_seed + SEEDS)]
        values[workload] = {name: [r[name] for r in runs] for name in metrics}
        print(f"{workload}: {SEEDS} seeds from {args.first_seed}")
        for name, spec in metrics.items():
            vals = values[workload][name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = (f"  {name:16s} median {med:10.4f} {spec['unit']:5s} "
                    f"spread {spread:6.3f}  bound {spec['bound']:.2f}  "
                    f"spread/bound {spread / spec['bound']:.2f}")
            if workload in old:
                before = statistics.median(old[workload][name])
                change = med / before - 1
                if spec["better"] == "higher":
                    change = -change
                line += f"  change {change:+.3f}"
            print(line, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
