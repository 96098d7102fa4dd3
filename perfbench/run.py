"""driftlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the engine is imported from ./src.  With
--trace 0 the run reports the end-to-end metrics: it sets up (import,
input generation, warm-up) SETUP_REPEATS times, then cycles the pool of
instances for --seconds in one closed loop (one client, no workers), and
scales every time by the host's speed at that moment (hostspeed.py).
With --trace 1 it reports per-layer metrics instead: it makes one pass
over the pool, running each instance untraced and then traced, and writes
the spans to .bench_out/.  The last line of standard output is the result
object; the line before it carries the details (metadata, sample counts,
failures, every traced function).  The exit code is 0 when the run
completed, whether or not its correctness checks passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
MAX_REPORTED_FAILURES = 5


def _purge_engine() -> None:
    for name in list(sys.modules):
        if name in ("driftlab", "workloads") or name.startswith("driftlab."):
            del sys.modules[name]


def _git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git checkout."""
    # The ceiling keeps git from taking a repository above the checkout for it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _declared(key: str) -> list:
    """(name, unit) of BENCHMARK.json's `key` metrics, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[key]]


def _metadata(args) -> dict:
    from driftlab.rational import Q
    return {
        "workload": args.workload,
        "seed": args.seed,
        "backend": f"{Q.__module__}.{Q.__name__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def _set_up(workload: str, seed: int, workdir: str):
    """Import the engine, generate the pool and warm up; returns (workload, pool)."""
    _purge_engine()
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[workload](seed, workdir)
    pool = wl.generate()
    for index in range(2):
        item = pickle.loads(pool[index])
        wl.execute(item)
    return wl, pool


class Tally:
    """Executions, failures and the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, wl, index: int, blob: bytes) -> tuple:
        """Execute and check one instance; returns execute()'s (start, end) times."""
        item = pickle.loads(blob)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            facts = wl.execute(item)
        except Exception as exc:  # a raising instance is a failed instance
            t1 = time.perf_counter()
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            t1 = time.perf_counter()
            reason = wl.check(index, item, facts)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REPORTED_FAILURES:
                self.reasons.append(f"instance {index}: {reason}")
        return t0, t1


def _end_to_end(args, meta: dict) -> tuple:
    setup_spans = []
    wl = None
    tally = Tally()
    runs = []  # (instance, start, end)
    try:
        with HostSpeed() as speed:
            for _ in range(SETUP_REPEATS):
                if wl is not None:
                    wl.close()
                t0 = time.perf_counter()
                wl, pool = _set_up(args.workload, args.seed, args.workdir)
                setup_spans.append((t0, time.perf_counter()))

            # Closed loop, one client: the pool in order, cycling, until
            # --seconds have passed and every instance has run at least once.
            gc.collect()
            start = time.perf_counter()
            deadline = start + args.seconds
            index = 0
            full_pass = False
            while not (full_pass and time.perf_counter() >= deadline):
                runs.append((index,) + tally.run(wl, index, pool[index]))
                index = (index + 1) % len(pool)
                full_pass = full_pass or index == 0
            elapsed = time.perf_counter() - start
    finally:
        if wl is not None:
            wl.close()
    setup_raw = [t1 - t0 for t0, t1 in setup_spans]
    setup_scaled = [speed.scaled(t0, t1) for t0, t1 in setup_spans]

    # An instance's latency is the mean of its host-scaled run times, so
    # every instance of the stratified pool weighs the same whatever the
    # number of passes.
    total = [0.0] * len(pool)
    count = [0] * len(pool)
    raw_busy = 0.0
    for index, t0, t1 in runs:
        total[index] += speed.scaled(t0, t1)
        count[index] += 1
        raw_busy += t1 - t0
    lat = sorted(t / c for t, c in zip(total, count))
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18]
    metrics = {
        "instances_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p95_ms": 1000 * p95,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    meta.update({
        "instances": len(pool),
        "executions": len(runs),
        "latency_samples": len(lat),
        "samples_beyond_p95": sum(1 for v in lat if v > p95),
        "measured_s": elapsed,
        "raw_instances_per_s": len(runs) / raw_busy,
        "host_slowdown_median": speed.slowdown(),
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        "failure_ratio": tally.failed / tally.attempted,
        "failures": tally.reasons,
    })
    return tally, {name: {"value": metrics[name], "unit": unit}
                   for name, unit in _declared("end_to_end")}


def _traced(args, meta: dict) -> tuple:
    import tracing
    wl, pool = _set_up(args.workload, args.seed, args.workdir)
    tracer = tracing.Tracer()
    tally = Tally()
    plain = traced = 0.0
    gc.collect()
    try:
        for index, blob in enumerate(pool):
            t0, t1 = tally.run(wl, index, blob)
            plain += t1 - t0
            tracer.install()
            try:
                t0, t1 = tally.run(wl, index, blob)
            finally:
                tracer.uninstall()
            traced += t1 - t0
    finally:
        wl.close()
    values = tracer.metrics(len(pool) / plain, len(pool) / traced)
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    meta.update({
        "instances": len(pool),
        "spans": tracer.write_spans(span_file),
        "span_file": os.path.relpath(span_file, ROOT),
        "failure_ratio": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "functions": tracer.functions(),
    })
    return tally, {name: {"value": values[name], "unit": unit}
                   for name, unit in _declared("per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "driftlab", "__init__.py")):
        sys.stderr.write(f"no engine sources under {SRC}\n")
        return 2
    # Every import compiles the engine afresh, so import time does not
    # depend on bytecode caches that earlier runs or test runs left behind.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(OUT, "no-pycache")
    sys.path.insert(0, SRC)
    import driftlab
    if os.path.dirname(os.path.abspath(driftlab.__file__)) != os.path.join(SRC, "driftlab"):
        sys.stderr.write(f"driftlab imported from {driftlab.__file__}, not {SRC}\n")
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    args.workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")

    meta = _metadata(args)
    tally, metrics = (_traced if args.trace else _end_to_end)(args, meta)
    print(json.dumps({"detail": meta}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
