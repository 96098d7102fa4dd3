"""Batch command-line front end.

Subcommands load JSON instances, run the engine, and emit JSON reports.
Exit codes: 0 success, 2 malformed input (schema), 3 property violation
(the report carries a reproducer).  Reports contain rationals as "p/q"
strings only, never floats.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import serialize
from .enlargement import check_condition_support, check_positivity, drift_operator, solve_factors
from .errors import EngineError, InternalInvariant, InvalidDocument, SchemaError
from .event_kernels import (InaccessibleEventData, inaccessible_jump_value,
                            quotient_identity_holds, reduced_equation_holds,
                            validate_inaccessible)
from .models import ENLARGEMENT_KINDS, GeneratorConfig, gen_random_instance
from .oracle import check_deflator, lp_deflator_oracle
from .rational import rat_str
from .representation import build_representation
from .serialize import encode_exact
from .verify import first_failure, run_verify
from .viability import deflator_from_connector, find_structure_connector, full_viability_verdict


def _emit(doc: dict, output: Optional[str]) -> None:
    """Write the report to output, or to stdout without one; SchemaError if output fails."""
    text = serialize.dumps(doc)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write output {output}: {exc.strerror or exc}")
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
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read input {path}: not UTF-8 ({exc})")
    return serialize.loads(text)


# --- subcommands ---

def _cmd_validate(args) -> int:
    """Run the loader of the command whose document it is; list structural failures."""
    doc = _read_input(args.input)
    try:
        if "enlargement" in doc:
            serialize.load_instance(doc)
        else:
            serialize.load_basis(doc)
        errors = ()
    except InvalidDocument as exc:
        errors = exc.detail["errors"]
    report = {"command": "validate", "ok": not errors, "errors": list(errors)}
    if errors:
        report["error"] = "VALIDATION_FAILED"
    _emit(report, args.output)
    return 3 if errors else 0


def _cmd_drift(args) -> int:
    eb, X = serialize.load_instance(_read_input(args.input), args.horizon)
    if X is None:
        raise SchemaError("drift requires a 'process' field")
    _emit({"command": "drift", "drift": serialize.process_to_json(drift_operator(eb, X))},
          args.output)
    return 0


def _cmd_factors(args) -> int:
    eb, _ = serialize.load_instance(_read_input(args.input), args.horizon)
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
    eb, _ = serialize.load_instance(_read_input(args.input), args.horizon)
    out = serialize.viability_report_to_json(full_viability_verdict(eb))
    out["command"] = "check-viability"
    _emit(out, args.output)
    return 0


def _cmd_deflator(args) -> int:
    space, filt, S, horizon = serialize.load_basis(_read_input(args.input), args.horizon,
                                                   require_asset=True)
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
        if not check_deflator(space, filt, S, Z, horizon):
            raise InternalInvariant("deflator fails its plain-arithmetic recheck")
        report["deflator"] = serialize.process_to_json(Z)
    else:
        report["tick"] = search.tick
        report["atom"] = sorted(search.atom) if search.atom else None
    agree = search.found == oracle.feasible
    if not agree:
        report["error"] = "connector search and oracle disagree"
    _emit(report, args.output)
    return 0 if agree else 3


def _cmd_verify(args) -> int:
    report = run_verify(args.seed, args.instances, force_failure=args.force_failure)
    if not report["ok"]:
        report["error"] = "BATTERY_FAILED"
        sys.stderr.write(serialize.dumps(first_failure(report)))
    _emit(report, args.output)
    return 0 if report["ok"] else 3


def _cmd_generate(args) -> int:
    docs = []
    for i in range(args.instances):
        kind = ENLARGEMENT_KINDS[i % len(ENLARGEMENT_KINDS)]
        cfg = GeneratorConfig(seed=args.seed + i, enlargement_kind=kind,
                              force_condition_failure=args.force_failure)
        docs.append(serialize.instance_to_json(gen_random_instance(cfg)))
    _emit({"command": "generate", "seed": args.seed, "instances": docs},
          args.output)
    return 0


def _cmd_kernel_eval(args) -> int:
    data = InaccessibleEventData(**serialize.load_kernel_event(_read_input(args.input)))
    validate_inaccessible(data)
    cells = range(len(data.q))
    _emit({"command": "kernel-eval", "kind": "inaccessible",
           "values": [rat_str(inaccessible_jump_value(data, k)) for k in cells],
           "reduced_equation": [reduced_equation_holds(data, k) for k in cells],
           "quotient_identity": [quotient_identity_holds(data, k) for k in cells]},
          args.output)
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

    add("validate", "check a basis or enlarged instance")
    add("drift", "drift of a base martingale under the enlargement", horizon=True)
    add("factors", "drift-multiplier factorization of an instance", horizon=True)
    add("check-viability", "full viability verdict with certificate", horizon=True)
    add("deflator", "connector search plus deflator oracle on one basis", horizon=True)
    add("verify-theorems", "run the seeded property suite", seeded=True)
    add("generate", "emit seeded random instances", seeded=True)
    add("kernel-eval", "evaluate per-event kernel formulas")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its exit code.

    An error report goes where --output points.  When that path cannot be
    written, a SCHEMA_ERROR report naming it goes to stdout instead, with
    exit 2.
    """
    args = _build_parser().parse_args(argv)
    out = getattr(args, "output", None)
    try:
        return _DISPATCH[args.command](args)
    except SchemaError as exc:
        report, code = {"error": "SCHEMA_ERROR", "message": str(exc)}, 2
    except EngineError as exc:
        report, code = {"error": exc.code, "message": str(exc),
                        "detail": encode_exact(exc.detail)}, 3
    try:
        _emit(report, out)
    except SchemaError as exc:
        _emit({"error": "SCHEMA_ERROR", "message": str(exc)}, None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
