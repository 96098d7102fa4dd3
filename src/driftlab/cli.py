"""Batch command-line front end.

Subcommands load JSON instances, run the engine, and emit JSON reports.
Exit codes: 0 success, 2 malformed input (schema), 3 property violation
(the report carries a reproducer).  Reports contain rationals as "p/q"
strings only; the series diagnostics command is the single float path
and its output is tagged approximate.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from typing import Optional

from . import serialize
from .basis import StoppingTime, is_stopping_time, validate
from .enlargement import (check_condition_support, check_positivity, drift_operator,
                          solve_factors, validate_enlargement)
from .errors import EngineError, SchemaError
from .event_kernels import (AccessibleEventData, InaccessibleEventData,
                            accessible_jump_value, continuous_part_integrand,
                            inaccessible_jump_value, quotient_identity_holds,
                            reduced_equation_holds, series_diagnostics,
                            validate_accessible, validate_inaccessible)
from .models import GeneratorConfig, gen_random_instance
from .oracle import lp_deflator_oracle
from .rational import ZERO, rat_str
from .representation import build_representation
from .serialize import encode_exact
from .verify import first_failure, run_verify
from .viability import deflator_from_connector, find_structure_connector, full_viability_verdict

_GEN_KINDS = ("random", "initial", "progressive")


def _emit(doc: dict, output: Optional[str]) -> None:
    text = serialize.dumps(doc)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_input(path: Optional[str]) -> dict:
    if not path:
        raise SchemaError("this subcommand requires --input")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}")
    return serialize.loads(text)


def _flag_horizon(horizon_flag: Optional[int], n: int, K: int) -> Optional[StoppingTime]:
    """The constant horizon a --horizon flag asks for, capped at K; None without the flag."""
    if horizon_flag is None:
        return None
    if horizon_flag < 0:
        raise SchemaError("--horizon must be a nonnegative tick")
    return StoppingTime.constant(n, min(horizon_flag, K))


def _load_instance(doc: dict, horizon_flag: Optional[int]):
    eb = serialize.instance_from_json(doc)
    flagged = _flag_horizon(horizon_flag, eb.space.n, eb.enlarged.K)
    if flagged is not None:
        eb = dataclasses.replace(eb, horizon=flagged)
    diag = validate_enlargement(eb)
    if not diag.ok:
        raise SchemaError("invalid instance: " + "; ".join(diag.errors))
    return eb


def _rat_vec(raw, label: str) -> tuple:
    if not isinstance(raw, list):
        raise SchemaError(f"'{label}' must be a list of rationals")
    return tuple(serialize._rat(v) for v in raw)


def _rat_mat(raw, label: str) -> tuple:
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise SchemaError(f"'{label}' must be a list of rational rows")
    return tuple(tuple(serialize._rat(v) for v in r) for r in raw)


# --- subcommands ---

def _cmd_validate(args) -> int:
    doc = _read_input(args.input)
    if "enlargement" in doc:
        eb = serialize.instance_from_json(doc)
        diag = validate_enlargement(eb)
    else:
        space, filt = serialize.basis_from_json(doc)
        diag = validate(space, filt)
    report = {"command": "validate", "ok": diag.ok, "errors": list(diag.errors)}
    if not diag.ok:
        report["error"] = "VALIDATION_FAILED"
    _emit(report, args.output)
    return 0 if diag.ok else 3


def _cmd_drift(args) -> int:
    doc = _read_input(args.input)
    eb = _load_instance(doc, args.horizon)
    if "process" not in doc:
        raise SchemaError("drift requires a 'process' field")
    X = serialize.process_from_json(doc["process"], n=eb.space.n,
                                    ticks=eb.base.K)
    drift = drift_operator(eb, X)
    _emit({"command": "drift", "drift": serialize.process_to_json(drift)},
          args.output)
    return 0


def _cmd_factors(args) -> int:
    doc = _read_input(args.input)
    eb = _load_instance(doc, args.horizon)
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    support = check_condition_support(eb)
    report = {
        "command": "factors",
        "width": rep.width,
        "driver": serialize.process_to_json(factors.N),
        "multiplier": serialize.process_to_json(factors.phi),
        "support": serialize.support_report_to_json(support),
        "positivity": check_positivity(eb, factors) is None,
    }
    _emit(report, args.output)
    return 0


def _cmd_check_viability(args) -> int:
    doc = _read_input(args.input)
    eb = _load_instance(doc, args.horizon)
    report = full_viability_verdict(eb)
    out = serialize.viability_report_to_json(report)
    out["command"] = "check-viability"
    _emit(out, args.output)
    return 0


def _cmd_deflator(args) -> int:
    doc = _read_input(args.input)
    space, filt = serialize.basis_from_json(doc)
    diag = validate(space, filt)
    if not diag.ok:
        raise SchemaError("invalid basis: " + "; ".join(diag.errors))
    if "asset" not in doc:
        raise SchemaError("deflator requires an 'asset' field")
    S = serialize.process_from_json(doc["asset"], n=space.n, ticks=filt.K)
    horizon = _flag_horizon(args.horizon, space.n, filt.K)
    if horizon is None:
        horizon = (serialize.horizon_from_json(doc["horizon"], space.n, filt.K)
                   if "horizon" in doc else StoppingTime.constant(space.n, filt.K))
    if not is_stopping_time(filt, horizon):
        raise SchemaError("invalid horizon: not a stopping time of the filtration")
    search = find_structure_connector(space, filt, S, horizon)
    oracle = lp_deflator_oracle(space, filt, S, horizon)
    report = {
        "command": "deflator",
        "found": search.found,
        "connector": (serialize.process_to_json(search.connector)
                      if search.found else None),
        "oracle": encode_exact(oracle.certificate),
    }
    if search.found:
        Z = deflator_from_connector(space, filt, search.connector, horizon)
        report["deflator"] = serialize.process_to_json(Z)
    else:
        report["tick"] = search.tick
        report["atom"] = sorted(search.atom) if search.atom else None
    if search.found != oracle.feasible:
        report["error"] = "connector search and oracle disagree"
        _emit(report, args.output)
        return 3
    _emit(report, args.output)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(args.seed, args.instances, workers=args.workers,
                        force_failure=args.force_failure)
    if not report["ok"]:
        report["error"] = "BATTERY_FAILED"
        sys.stderr.write(serialize.dumps(first_failure(report)))
    _emit(report, args.output)
    return 0 if report["ok"] else 3


def _cmd_generate(args) -> int:
    docs = []
    for i in range(args.instances):
        kind = _GEN_KINDS[i % len(_GEN_KINDS)]
        cfg = GeneratorConfig(seed=args.seed + i, enlargement_kind=kind,
                              force_condition_failure=args.force_failure)
        docs.append(serialize.instance_to_json(gen_random_instance(cfg)))
    _emit({"command": "generate", "seed": args.seed, "instances": docs},
          args.output)
    return 0


def _kernel_accessible(raw: dict) -> dict:
    data = AccessibleEventData(
        p=_rat_vec(raw.get("p"), "p"),
        pbar=_rat_vec(raw.get("pbar"), "pbar"),
        n_vals=_rat_mat(raw.get("n_vals"), "n_vals"),
        d_vals=_rat_vec(raw.get("d_vals"), "d_vals"),
        phi=_rat_vec(raw.get("phi"), "phi"),
        weight=serialize._rat(raw.get("weight", "1/1")),
    )
    validate_accessible(data)
    values = [rat_str(accessible_jump_value(data, h)) if data.p[h] > ZERO else None
              for h in range(len(data.p))]
    return {"kind": "accessible", "values": values}


def _kernel_inaccessible(raw: dict) -> dict:
    data = InaccessibleEventData(
        q=_rat_vec(raw.get("q"), "q"),
        qbar=_rat_vec(raw.get("qbar"), "qbar"),
        jump_scale=_rat_vec(raw.get("jump_scale"), "jump_scale"),
        base_coeff=_rat_vec(raw.get("base_coeff"), "base_coeff"),
        pair_rows=_rat_mat(raw.get("pair_rows"), "pair_rows"),
        drive_mean=_rat_vec(raw.get("drive_mean"), "drive_mean"),
        phi=_rat_vec(raw.get("phi"), "phi"),
    )
    validate_inaccessible(data)
    cells = len(data.q)
    return {
        "kind": "inaccessible",
        "values": [rat_str(inaccessible_jump_value(data, k)) for k in range(cells)],
        "reduced_equation": [reduced_equation_holds(data, k) for k in range(cells)],
        "quotient_identity": [quotient_identity_holds(data, k) for k in range(cells)],
    }


def _kernel_continuous(raw: dict) -> dict:
    values = continuous_part_integrand(
        _rat_vec(raw.get("base_coeff"), "base_coeff"),
        _rat_mat(raw.get("pair_rows"), "pair_rows"),
        _rat_vec(raw.get("phi"), "phi"))
    return {"kind": "continuous", "values": [rat_str(v) for v in values]}


def _cmd_kernel_eval(args) -> int:
    doc = _read_input(args.input)
    if "accessible" in doc:
        report = _kernel_accessible(serialize._get(doc, "accessible", dict))
    elif "inaccessible" in doc:
        report = _kernel_inaccessible(serialize._get(doc, "inaccessible", dict))
    elif "continuous" in doc:
        report = _kernel_continuous(serialize._get(doc, "continuous", dict))
    else:
        raise SchemaError(
            "kernel-eval input needs 'accessible', 'inaccessible', or 'continuous'")
    report["command"] = "kernel-eval"
    _emit(report, args.output)
    return 0


def _is_numbers(raw) -> bool:
    """A JSON list of numbers (a bool is not one)."""
    return isinstance(raw, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)


def _cmd_diagnose_series(args) -> int:
    doc = _read_input(args.input)
    levels = doc.get("levels")
    jumps = doc.get("jumps")
    if levels is not None and not (isinstance(levels, list) and all(
            isinstance(g, dict) and _is_numbers(g.get("t")) and _is_numbers(g.get("y"))
            for g in levels)):
        raise SchemaError("'levels' must be a list of {t, y} grids of numbers")
    if jumps is not None and not _is_numbers(jumps):
        raise SchemaError("'jumps' must be a list of numbers")
    report = series_diagnostics(levels=levels, jumps=jumps)
    report["command"] = "diagnose-series"
    report["approximate"] = True
    _emit(report, args.output)
    return 0


_DISPATCH = {
    "validate": _cmd_validate,
    "drift": _cmd_drift,
    "factors": _cmd_factors,
    "check-viability": _cmd_check_viability,
    "deflator": _cmd_deflator,
    "verify-theorems": _cmd_verify,
    "generate": _cmd_generate,
    "kernel-eval": _cmd_kernel_eval,
    "diagnose-series": _cmd_diagnose_series,
}


def _positive_int(text: str) -> int:
    """argparse type for a count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Exact engine for filtration enlargement on finite bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, horizon: bool = False, seeded: bool = False):
        """A subcommand; seeded ones generate their input, the others read --input."""
        p = sub.add_parser(name, help=help_text)
        if not seeded:
            p.add_argument("--input", help="path to a JSON input document")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        if horizon:
            p.add_argument("--horizon", type=int, default=None,
                           help="override the horizon with a constant tick")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--instances", type=_positive_int, default=100)
            p.add_argument("--force-failure", action="store_true",
                           dest="force_failure")
        return p

    add("validate", "check a basis or enlarged instance")
    add("drift", "drift of a base martingale under the enlargement", horizon=True)
    add("factors", "drift-multiplier factorization of an instance", horizon=True)
    add("check-viability", "full viability verdict with certificate", horizon=True)
    add("deflator", "connector search plus deflator oracle on one basis", horizon=True)
    verify = add("verify-theorems", "run the seeded property suite", seeded=True)
    verify.add_argument("--workers", type=_positive_int, default=None)
    add("generate", "emit seeded random instances", seeded=True)
    add("kernel-eval", "evaluate per-event kernel formulas")
    add("diagnose-series", "classify integral refinements and jump series")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = getattr(args, "output", None)
    try:
        return _DISPATCH[args.command](args)
    except SchemaError as exc:
        _emit({"error": "SCHEMA_ERROR", "message": str(exc)}, out)
        return 2
    except EngineError as exc:
        _emit({"error": exc.code, "message": str(exc),
               "detail": encode_exact(exc.detail)}, out)
        return 3


if __name__ == "__main__":
    sys.exit(main())
