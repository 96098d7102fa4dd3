"""Self-test of the benchmark's traced counts and of its input pickling.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload, makes two traced runs with seed SEED and requires:
  * every correctness check to pass in both;
  * every deterministic per-layer count (calls, LP rows/cols/density,
    ratios, dimensions, basis.Process.jump.calls, rational.max_den_bits)
    to be exactly equal in both runs, so later changes may cite them;
  * drift-transfer to solve no LP at all (it is the LP-free control).
It also checks that a pickled input carries no state cached on its
driftlab objects.  Prints every violation and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402
from driftlab import enlargement, models  # noqa: E402


def _run(workload: str, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cached_state(obj, seen=None) -> list:
    """Names of __dict__ entries beyond the fields, on driftlab dataclasses in `obj`."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (tuple, list, frozenset)):
        return [name for x in obj for name in _cached_state(x, seen)]
    if not dataclasses.is_dataclass(obj):
        return []
    fields = {f.name for f in dataclasses.fields(obj)}
    out = [f"{type(obj).__name__}.{name}" for name in vars(obj) if name not in fields]
    for name in fields:
        out += _cached_state(getattr(obj, name), seen)
    return out


def _pickling_problems() -> list:
    eb = models.gen_random_instance(models.GeneratorConfig(seed=SEED))
    enlargement.check_condition_support(eb)  # fills the engine's cached properties
    if not _cached_state(eb):
        return ["pickling: the engine cached nothing, so the check proves nothing"]
    left = _cached_state(pickle.loads(workloads.dumps(eb)))
    return [f"pickling: cached state survives: {', '.join(sorted(set(left)))}"] if left else []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    args = parser.parse_args()
    problems = _pickling_problems()
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        first, second = (_run(workload, bench["run_seconds"]) for _ in range(2))
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: correctness checks failed")
        compared = 0
        for name, m in first["metrics"].items():
            if not tracing.is_deterministic(name):
                continue
            compared += 1
            if m["value"] != second["metrics"][name]["value"]:
                problems.append(f"{workload}: {name} = {m['value']} then "
                                f"{second['metrics'][name]['value']}")
        if workload == "drift-transfer":
            for name in ("linfeas.solve_lp.connector.calls", "linfeas.solve_lp.oracle.calls"):
                if first["metrics"][name]["value"] != 0:
                    problems.append(f"drift-transfer solved LPs: {name} > 0")
        overhead = first["metrics"]["trace.traced_over_untraced"]["value"]
        print(f"{workload}: {compared} deterministic counts compared; traced "
              f"instances/s = {overhead:.3f} x untraced", flush=True)
    for problem in problems:
        print("FAIL", problem)
    if problems:
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
