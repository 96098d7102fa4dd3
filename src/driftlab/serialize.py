"""JSON input and output for bases, processes, and reports.

Rationals travel as "p/q" strings, never as floats; block structures as
sorted index lists.  Loaders raise SchemaError on any malformed document
so the CLI can map them to its schema exit code.  Dumps are canonical
(sorted keys, fixed separators, trailing newline) to keep reports
byte-deterministic.
"""

from __future__ import annotations

import json
from typing import Optional

from .basis import Filtration, Partition, Process, SampleSpace, StoppingTime
from .enlargement import EnlargedBasis
from .errors import EngineError, SchemaError
from .rational import Q, rat, rat_str


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    return doc


def _get(doc: dict, key: str, kind=None):
    if key not in doc:
        raise SchemaError(f"missing field '{key}'")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"field '{key}' has the wrong type")
    return val


def _rat(text) -> Q:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise SchemaError(f"expected a rational 'p/q' string, got {text!r}")
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}")


def encode_exact(obj):
    """Recursively JSON-ify a structure that may hold rationals and sets."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [encode_exact(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): encode_exact(v) for k, v in obj.items()}
    if hasattr(obj, "numerator") and hasattr(obj, "denominator"):
        return rat_str(obj)
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


# --- sample space and filtration ---

def _blocks_to_json(part: Partition) -> list:
    return [sorted(b) for b in part.blocks]


def _blocks_from_json(raw, n: int) -> Partition:
    if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
        raise SchemaError("partition must be a list of index lists")
    for b in raw:
        for i in b:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
                raise SchemaError(f"bad outcome index {i!r}")
    try:
        return Partition(raw)
    except (EngineError, ValueError) as exc:
        raise SchemaError(f"bad partition: {exc}")


def basis_to_json(space: SampleSpace, filt: Filtration) -> dict:
    return {
        "outcomes": list(space.outcomes),
        "prob": [rat_str(p) for p in space.prob],
        "filtration": {
            "initial": _blocks_to_json(filt.initial),
            "ticks": [{"pre": _blocks_to_json(filt.pre(k)),
                       "at": _blocks_to_json(filt.at(k))}
                      for k in range(1, filt.K + 1)],
        },
    }


def basis_from_json(doc: dict) -> tuple:
    outcomes = _get(doc, "outcomes", list)
    if not outcomes or not all(isinstance(o, str) for o in outcomes):
        raise SchemaError("'outcomes' must be a nonempty list of names")
    prob = [_rat(v) for v in _get(doc, "prob", list)]
    if len(prob) != len(outcomes):
        raise SchemaError("'prob' length must match 'outcomes'")
    try:
        space = SampleSpace(tuple(outcomes), tuple(prob))
    except (EngineError, ValueError) as exc:
        raise SchemaError(f"bad sample space: {exc}")
    filt = _filtration_from_json(_get(doc, "filtration", dict), space.n)
    return space, filt


def _filtration_from_json(fdoc: dict, n: int) -> Filtration:
    initial = _blocks_from_json(_get(fdoc, "initial", list), n)
    ticks = []
    for entry in _get(fdoc, "ticks", list):
        if not isinstance(entry, dict):
            raise SchemaError("each tick must be an object with 'pre' and 'at'")
        ticks.append((_blocks_from_json(_get(entry, "pre", list), n),
                      _blocks_from_json(_get(entry, "at", list), n)))
    try:
        return Filtration(initial, tuple(ticks))
    except (EngineError, ValueError) as exc:
        raise SchemaError(f"bad filtration: {exc}")


def horizon_to_json(T: StoppingTime) -> list:
    return list(T.values)


def horizon_from_json(raw, n: int, K: int) -> StoppingTime:
    if not isinstance(raw, list) or len(raw) != n:
        raise SchemaError("'horizon' must list one tick (or null) per outcome")
    vals = []
    for v in raw:
        if v is None:
            vals.append(None)
        elif isinstance(v, int) and not isinstance(v, bool) and 0 <= v:
            vals.append(min(v, K) if v <= K else None)
        else:
            raise SchemaError(f"bad horizon entry {v!r}")
    return StoppingTime(tuple(vals))


def instance_to_json(eb: EnlargedBasis) -> dict:
    doc = basis_to_json(eb.space, eb.base)
    enlarged = basis_to_json(eb.space, eb.enlarged)
    doc["enlargement"] = enlarged["filtration"]
    doc["horizon"] = horizon_to_json(eb.horizon)
    return doc


def instance_from_json(doc: dict) -> EnlargedBasis:
    space, base = basis_from_json(doc)
    enlarged = _filtration_from_json(_get(doc, "enlargement", dict), space.n)
    horizon = horizon_from_json(_get(doc, "horizon", list), space.n, enlarged.K)
    return EnlargedBasis(space=space, base=base, enlarged=enlarged, horizon=horizon)


# --- processes ---

def process_to_json(X: Process) -> dict:
    return {
        "dim": X.dim,
        "values": [[[rat_str(v) for v in X.at(i, k)] for k in range(X.ticks + 1)]
                   for i in range(X.n)],
    }


def process_from_json(doc: dict, n: Optional[int] = None,
                      ticks: Optional[int] = None) -> Process:
    if not isinstance(doc, dict):
        raise SchemaError("a process must be a JSON object")
    dim = _get(doc, "dim", int)
    if isinstance(dim, bool) or dim < 1:
        raise SchemaError("'dim' must be a positive integer")
    values = _get(doc, "values", list)
    if n is not None and len(values) != n:
        raise SchemaError(f"process must have {n} outcome rows")
    rows = []
    width = None
    for row in values:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise SchemaError("ragged process rows")
        width = len(row)
        out_row = []
        for entry in row:
            if not isinstance(entry, list) or len(entry) != dim:
                raise SchemaError("each process value must list one rational per component")
            out_row.append(tuple(_rat(v) for v in entry))
        rows.append(tuple(out_row))
    if width is None or width < 1:
        raise SchemaError("process rows must be nonempty")
    if ticks is not None and width != ticks + 1:
        raise SchemaError(f"process must have {ticks + 1} tick values per row")
    return Process(dim, tuple(rows))


# --- reports ---

def support_report_to_json(report) -> dict:
    doc = {"ok": report.ok}
    if not report.ok:
        doc["tick"] = report.tick
        doc["atom"] = sorted(report.atom)
        doc["child"] = sorted(report.child)
    return doc


def viability_report_to_json(report) -> dict:
    doc = {
        "verdict": report.verdict,
        "condition_support": report.condition_support,
        "deflator": process_to_json(report.deflator) if report.deflator else None,
        "witness": None,
    }
    if report.positivity is not None:
        doc["positivity"] = report.positivity
    if report.support is not None:
        doc["support"] = support_report_to_json(report.support)
    if report.factors is not None:
        doc["multiplier"] = process_to_json(report.factors.phi)
    if report.connector is not None:
        doc["connector"] = process_to_json(report.connector)
    if report.witness is not None:
        doc["witness"] = {
            "tick": report.witness["tick"],
            "atom": sorted(report.witness["atom"]),
            "child": sorted(report.witness["child"]),
            "asset": process_to_json(report.witness["asset"]),
            "certificate": encode_exact(report.witness["certificate"]),
        }
    return doc
