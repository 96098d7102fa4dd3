"""Every committed BENCH_<pr>.json follows the benchmark record schema of ROADMAP.md.

A record holds the end-to-end runs of parent and change per workload, and
one traced pair of per-layer metrics.  The schema has grown by one field
since it was set: `setup_raw_s` beside `setup_s` from BENCH_25.json on.
Known gaps are listed in GAPS; a record with a gap not listed there, or a
listed gap that is mended, fails.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))

TOP = {"pr", "schema", "title", "backend", "python", "nproc", "parent_commit", "command",
       "order", "claim", "tier1", "workloads", "traced"}
WORKLOAD = {"seeds", "held_out_seeds", "failures", "attempted", "metrics"}
METRIC = {"unit", "better", "parent", "change", "change_over_parent", "change_better_pairs"}
SIDE = {"median", "q1", "q3", "runs"}
TRACED = {"workload", "seed", "command", "parent", "change"}
SETUP_RAW_FROM = 25
DETERMINISTIC_COUNTS_FROM = 16

# (pr, where, the keys missing there): BENCH_29.json has no tier1 run, no
# setup_raw_s in its workloads, and its traced pairs sit per workload under
# traced.workloads rather than in one traced workload's parent and change.
GAPS = {
    (29, "top", frozenset({"tier1"})),
    (29, "workloads", frozenset({"setup_raw_s"})),
    (29, "traced", frozenset({"workload", "parent", "change"})),
}


def end_to_end() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def gaps_of(record: dict) -> set:
    """(pr, where, missing keys) for each place where the record lacks schema keys."""
    pr = record["pr"]
    found = set()

    def missing(where, have, want):
        lacking = frozenset(want - set(have))
        if lacking:
            found.add((pr, where, lacking))

    missing("top", record, TOP)
    for stats in record.get("workloads", {}).values():
        missing("workloads", stats, WORKLOAD | ({"setup_raw_s"} if pr >= SETUP_RAW_FROM else set()))
    traced = record.get("traced", {})
    missing("traced", traced, TRACED
            | ({"deterministic_counts"} if pr >= DETERMINISTIC_COUNTS_FROM else set()))
    return found


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_records_are_found():
    assert len(RECORDS) >= 13
    assert all(re.fullmatch(r"BENCH_\d+", path.stem) for path in RECORDS)


def test_every_record_has_the_schema_keys_but_the_named_gaps():
    found = set()
    for path in RECORDS:
        found |= gaps_of(load(path))
    assert found == GAPS


@pytest.mark.parametrize("path", RECORDS, ids=[path.stem for path in RECORDS])
def test_record_fields_hold_the_schema(path):
    """Field values: numbering, sides, metric units and directions, one run per seed."""
    record = load(path)
    pr = record["pr"]
    assert path.stem == f"BENCH_{pr}" and record["schema"] == 1
    assert isinstance(record["backend"], str) or set(record["backend"]) == {"parent", "change"}
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
    assert "{workload}" in record["command"] and "{seed}" in record["command"]
    if "tier1" in record:
        assert {"parent", "change"} <= set(record["tier1"])
    metrics = end_to_end()
    for name, stats in record["workloads"].items():
        seeds = stats["seeds"]
        assert seeds and set(stats["held_out_seeds"]) <= set(seeds), name
        for field in ("failures", "attempted"):
            assert set(stats[field]) == {"parent", "change"}, (name, field)
        assert set(stats["metrics"]) == set(metrics), name
        for metric, entry in stats["metrics"].items():
            assert METRIC <= set(entry), (name, metric)
            assert (entry["unit"], entry["better"]) == \
                (metrics[metric]["unit"], metrics[metric]["better"]), (name, metric)
            for side in ("parent", "change"):
                assert SIDE <= set(entry[side]), (name, metric, side)
                assert len(entry[side]["runs"]) == len(seeds), (name, metric, side)
            wins, pairs = entry["change_better_pairs"].split("/")
            assert 0 <= int(wins) <= int(pairs) == len(seeds), (name, metric)
        if "setup_raw_s" in stats:
            assert {"parent", "change"} <= set(stats["setup_raw_s"]), name
    traced = record["traced"]
    if "workload" in traced:
        assert traced["workload"] in record["workloads"]
        assert set(traced["parent"]) & set(traced["change"])
