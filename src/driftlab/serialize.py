"""JSON input and output for bases, processes, and reports.

Rationals travel as "p/q" strings, never as floats; block structures as
sorted index lists.  Every input schema lives here, with one loader per
document kind: `load_instance`, `load_basis` and `load_kernel_event`.
Loaders raise SchemaError on any malformed document so the CLI can map
them to its schema exit code, and InvalidDocument on one that parses but
breaks a structural invariant.  Dumps are canonical (sorted keys, fixed
separators, trailing newline) to keep reports byte-deterministic.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

from .basis import (Filtration, Partition, Process, SampleSpace, StoppingTime,
                    is_stopping_time, validate)
from .calculus import is_adapted
from .enlargement import EnlargedBasis, validate_enlargement
from .errors import EngineError, InvalidDocument, SchemaError
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
    """One tick (or null, never) per outcome; a tick past K also means never."""
    if not isinstance(raw, list) or len(raw) != n:
        raise SchemaError("'horizon' must list one tick (or null) per outcome")
    for v in raw:
        if v is not None and (isinstance(v, bool) or not isinstance(v, int) or v < 0):
            raise SchemaError(f"bad horizon entry {v!r}")
    return StoppingTime(tuple(None if v is None or v > K else v for v in raw))


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


def _tick_horizon(tick: int, n: int, K: int) -> StoppingTime:
    """The constant horizon a --horizon tick asks for, read as a document horizon."""
    if tick < 0:
        raise SchemaError("--horizon must be a nonnegative tick")
    return horizon_from_json([tick] * n, n, K)


def load_instance(doc: dict, horizon: Optional[int] = None) -> tuple:
    """An enlarged-instance document: (EnlargedBasis, its 'process' or None).

    The document's horizon is parsed, then a --horizon tick replaces it.
    """
    eb = instance_from_json(doc)
    if horizon is not None:
        eb = dataclasses.replace(eb, horizon=_tick_horizon(horizon, eb.space.n, eb.enlarged.K))
    diag = validate_enlargement(eb)
    if not diag.ok:
        raise InvalidDocument("invalid instance: " + "; ".join(diag.errors), errors=diag.errors)
    X = (process_from_json(doc["process"], n=eb.space.n, ticks=eb.base.K)
         if "process" in doc else None)
    return eb, X


def load_basis(doc: dict, horizon: Optional[int] = None,
               require_asset: bool = False) -> tuple:
    """A basis document: (space, filtration, its 'asset' or None, horizon).

    The document's horizon (the last tick when absent) is parsed, then a
    --horizon tick replaces it; the asset must be adapted to the filtration.
    """
    space, filt = basis_from_json(doc)
    diag = validate(space, filt)
    if not diag.ok:
        raise InvalidDocument("invalid basis: " + "; ".join(diag.errors), errors=diag.errors)
    if require_asset and "asset" not in doc:
        raise SchemaError("deflator requires an 'asset' field")
    S = process_from_json(doc["asset"], n=space.n, ticks=filt.K) if "asset" in doc else None
    T = horizon_from_json(doc.get("horizon", [filt.K] * space.n), space.n, filt.K)
    if horizon is not None:
        T = _tick_horizon(horizon, space.n, filt.K)
    if not is_stopping_time(filt, T):
        raise InvalidDocument(
            "invalid horizon: not a stopping time of the filtration",
            errors=("NOT_A_STOPPING_TIME: horizon not measurable in the filtration",))
    if S is not None and not is_adapted(filt, S):
        raise InvalidDocument("invalid asset: not adapted to the filtration",
                              errors=("NOT_ADAPTED: asset not adapted to the filtration",))
    return space, filt, S, T


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


# --- kernel events ---

def _rat_vec(raw, label: str) -> tuple:
    if not isinstance(raw, list):
        raise SchemaError(f"'{label}' must be a list of rationals")
    return tuple(_rat(v) for v in raw)


def _rat_mat(raw, label: str) -> tuple:
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise SchemaError(f"'{label}' must be a list of rational rows")
    return tuple(tuple(_rat(v) for v in r) for r in raw)


# Kernel-event fields per kind, in reading order, with their reader; a
# field missing from the document reads as None.
_KERNEL_FIELDS = {
    "accessible": (("p", _rat_vec), ("pbar", _rat_vec), ("n_vals", _rat_mat),
                   ("d_vals", _rat_vec), ("phi", _rat_vec)),
    "inaccessible": (("q", _rat_vec), ("qbar", _rat_vec), ("jump_scale", _rat_vec),
                     ("base_coeff", _rat_vec), ("pair_rows", _rat_mat),
                     ("drive_mean", _rat_vec), ("phi", _rat_vec)),
}


def load_kernel_event(doc: dict) -> tuple:
    """A kernel-eval document: (kind, {field: value}) for its first kind present."""
    for kind, fields in _KERNEL_FIELDS.items():
        if kind in doc:
            raw = _get(doc, kind, dict)
            return kind, {name: read(raw.get(name), name) for name, read in fields}
    raise SchemaError("kernel-eval input needs 'accessible' or 'inaccessible'")


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
