"""Seed-indexed property batteries shared by the CLI and the test suite.

Each battery draws one instance from its seed, checks one cluster of
exact statements, and returns a JSON-able result dict with an "ok" flag
and, on failure, the offending instance serialized for reproduction.
run_verify fans a master seed out over the BATTERIES rotation in one
process (instance i runs BATTERIES[i % len(BATTERIES)] on seed
master + i); results are keyed and ordered by instance index, so a seed
names its report byte for byte.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from . import serialize
from .basis import StoppingTime
from .calculus import is_martingale
from .enlargement import (check_condition_support, check_positivity,
                          compensator_transfer_check, factorization_check,
                          solve_factors)
from .errors import ConnectorInvalid, DataInvariantViolated
from .event_kernels import (quotient_identity_holds, reduced_equation_holds,
                            validate_inaccessible)
from .models import (ENLARGEMENT_KINDS, GeneratorConfig, azema_phi_crosscheck,
                     gen_initial_enlargement, gen_progressive_enlargement,
                     gen_random_instance, gen_single_filtration,
                     jacod_phi_crosscheck, random_adapted,
                     random_inaccessible_event_data, random_martingale,
                     random_stopping_time, random_viable_asset,
                     tilted_component_assets)
from .oracle import check_deflator, lp_deflator_oracle, verify_no_deflator
from .rational import ZERO, Q, _dot
from .representation import build_representation
from .viability import (deflator_from_connector, find_structure_connector,
                        full_viability_verdict, g_connector, jump_identity_check,
                        solve_accessible_K)


def _fail(out: dict, reason: str) -> None:
    out["ok"] = False
    out.setdefault("reasons", []).append(reason)


def connector_oracle_battery(seed: int) -> dict:
    """Connector search agrees with the feasibility oracle; deflators recheck."""
    rng = random.Random(f"connector:{seed}")
    n = rng.randint(2, 12)
    ticks = rng.randint(1, 4)
    space, filt = gen_single_filtration(rng, n, ticks, 3)
    horizon = (StoppingTime.constant(n, ticks) if rng.random() < 0.7
               else random_stopping_time(rng, space, filt))
    dim = rng.choice((1, 1, 2))
    known_viable = rng.random() < 0.45
    if known_viable:
        S, _, _ = random_viable_asset(rng, space, filt, dim=dim)
    else:
        S = random_adapted(rng, space, filt, dim=dim)
    search = find_structure_connector(space, filt, S, horizon)
    res = lp_deflator_oracle(space, filt, S, horizon)
    out = {"battery": "connector-oracle", "seed": seed, "ok": True,
           "found": search.found, "feasible": res.feasible}
    if search.found != res.feasible:
        _fail(out, "connector search and deflator oracle disagree")
    if known_viable and not search.found:
        _fail(out, "viable-by-construction asset rejected")
    if search.found:
        Z = deflator_from_connector(space, filt, search.connector, horizon)
        if not check_deflator(space, filt, S, Z, horizon):
            _fail(out, "deflator fails its plain-arithmetic recheck")
    if not out["ok"]:
        out["instance"] = serialize.basis_to_json(space, filt)
        out["asset"] = serialize.process_to_json(S)
        out["horizon"] = serialize.horizon_to_json(horizon)
    return out


def drift_factorization_battery(seed: int) -> dict:
    """Drift factorization and compensator transfer hold for every input."""
    kind = ENLARGEMENT_KINDS[seed % len(ENLARGEMENT_KINDS)]
    eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=kind))
    rng = random.Random(f"factorization:{seed}")
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    out = {"battery": "drift-factorization", "seed": seed, "kind": kind, "ok": True}
    for h in range(rep.width):
        if factorization_check(eb, factors, rep.W.component(h)) is not None:
            _fail(out, f"factorization broke on driving component {h}")
    M = random_martingale(rng, eb.space, eb.base)
    if factorization_check(eb, factors, M) is not None:
        _fail(out, "factorization broke on a random base martingale")
    A = random_adapted(rng, eb.space, eb.base, dim=2)
    if compensator_transfer_check(eb, factors, A) is not None:
        _fail(out, "compensator transfer broke on a random adapted process")
    if check_positivity(eb, factors) is not None:
        _fail(out, "multiplier pairing not positive on an alive outcome")
    if not out["ok"]:
        out["instance"] = serialize.instance_to_json(eb)
    return out


def viability_battery(seed: int, force: bool = False) -> dict:
    """Verdict must match an asset-by-asset connector sweep.

    On true verdicts the common deflator must deflate every driving
    component; on false verdicts the witness certificate must revalidate.
    """
    kind = ENLARGEMENT_KINDS[seed % len(ENLARGEMENT_KINDS)]
    cfg = GeneratorConfig(seed=seed, enlargement_kind=kind,
                          force_condition_failure=force)
    eb = gen_random_instance(cfg)
    rng = random.Random(f"viability:{seed}")
    rep = build_representation(eb.space, eb.base)
    report = full_viability_verdict(eb, rep)
    family = tilted_component_assets(eb.space, eb.base, rep)
    while len(family) < 20:
        S, _, _ = random_viable_asset(rng, eb.space, eb.base)
        family.append(S)
    rejected = sum(
        1 for S in family
        if not find_structure_connector(eb.space, eb.enlarged, S, eb.horizon).found)
    out = {"battery": "full-viability", "seed": seed, "kind": kind,
           "forced": force, "ok": True, "verdict": report.verdict,
           "assets": len(family), "rejected": rejected}
    if report.verdict != (rejected == 0):
        _fail(out, "verdict disagrees with the asset-family sweep")
    if report.verdict != report.condition_support:
        _fail(out, "verdict and support condition diverged")
    if force and report.verdict:
        _fail(out, "forced support failure still produced a true verdict")
    if report.verdict:
        if not check_deflator(eb.space, eb.enlarged, rep.W, report.deflator, eb.horizon):
            _fail(out, "common deflator fails its plain-arithmetic recheck on the driver")
    else:
        wit = report.witness
        if wit is None:
            _fail(out, "false verdict carries no witness")
        else:
            if not is_martingale(eb.space, eb.base, wit["asset"]):
                _fail(out, "witness asset is not a base martingale")
            if not verify_no_deflator(eb.space, eb.enlarged, wit["asset"],
                                      eb.horizon, wit["certificate"]):
                _fail(out, "witness certificate failed revalidation")
    if not out["ok"]:
        out["instance"] = serialize.instance_to_json(eb)
    return out


def jump_identity_battery(seed: int) -> dict:
    """Jump identity and connector transfer on support-holding instances."""
    rng = random.Random(f"jump:{seed}")
    kind = ENLARGEMENT_KINDS[seed % len(ENLARGEMENT_KINDS)]
    eb = None
    for _ in range(64):
        cand = gen_random_instance(GeneratorConfig(seed=rng.randrange(1 << 62),
                                                   enlargement_kind=kind))
        if check_condition_support(cand).ok:
            eb = cand
            break
    out = {"battery": "jump-identity", "seed": seed, "kind": kind, "ok": True}
    if eb is None:
        _fail(out, "could not draw a support-holding instance")
        return out
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    for D, tag in ((None, "zero"),
                   (random_martingale(rng, eb.space, eb.base, cap=Q(7, 8)), "random")):
        K = solve_accessible_K(eb, rep, D)
        bad = jump_identity_check(eb, rep, factors, K, D)
        if bad is not None:
            _fail(out, f"jump identity broke ({tag}) at {bad}")
    S, D_conn, _ = random_viable_asset(rng, eb.space, eb.base)
    try:
        g_connector(eb, rep, factors, S, D_conn)
    except ConnectorInvalid as exc:
        _fail(out, f"connector transfer failed: {exc}")
    if not out["ok"]:
        out["instance"] = serialize.instance_to_json(eb)
    return out


def inaccessible_battery(seed: int) -> dict:
    """Reduced equation and quotient identity; contrapositive tilt check."""
    rng = random.Random(f"inaccessible:{seed}")
    data = random_inaccessible_event_data(rng)
    out = {"battery": "inaccessible-kernel", "seed": seed, "ok": True,
           "cells": len(data.q)}
    try:
        validate_inaccessible(data)
    except DataInvariantViolated as exc:
        _fail(out, f"generated data invalid: {exc}")
        return out
    for k in range(len(data.q)):
        if not reduced_equation_holds(data, k):
            _fail(out, f"reduced equation broke at cell {k}")
        if not quotient_identity_holds(data, k):
            _fail(out, f"quotient identity broke at cell {k}")
    pairings = (_dot(data.phi, data.scaled_row(k)) for k in range(len(data.q)))
    pairing = next((val for val in pairings if val != ZERO), None)
    if pairing is not None:
        tampered = dataclasses.replace(data, phi=tuple(Q(-2) / pairing * v for v in data.phi))
        try:
            validate_inaccessible(tampered)
            _fail(out, "nonpositive tilt slipped past validation")
        except DataInvariantViolated:
            pass
    return out


def _nondegenerate_labels(rng: random.Random, space, base) -> list:
    """Two labels meeting every left-limit atom, or one label as fallback."""
    finest = base.pre(base.K)
    if any(len(blk) < 2 for blk in finest.blocks):
        return [0] * space.n
    xi = [0] * space.n
    for blk in finest.blocks:
        members = sorted(blk)
        rng.shuffle(members)
        cut = max(1, len(members) // 2)
        for j, i in enumerate(members):
            xi[i] = 1 if j < cut else 0
    return xi


def density_battery(seed: int) -> dict:
    """Conditional-density route agrees with the generic drift machinery."""
    rng = random.Random(f"density:{seed}")
    n = rng.randint(4, 9)
    ticks = rng.randint(1, 3)
    space, base = gen_single_filtration(rng, n, ticks, 3)
    xi = _nondegenerate_labels(rng, space, base)
    eb = gen_initial_enlargement(space, base, xi)
    out = {"battery": "density-crosscheck", "seed": seed, "ok": True,
           "levels": len(set(xi))}
    if not jacod_phi_crosscheck(eb, xi):
        _fail(out, "density cross-check failed")
        out["instance"] = serialize.instance_to_json(eb)
        out["xi"] = list(xi)
    return out


def survival_battery(seed: int) -> dict:
    """Survival-process route agrees with the generic drift machinery."""
    rng = random.Random(f"survival:{seed}")
    n = rng.randint(4, 9)
    ticks = rng.randint(1, 3)
    space, base = gen_single_filtration(rng, n, ticks, 3)
    choices = [None] + list(range(1, ticks + 1))
    tau = [rng.choice(choices) for _ in range(n)]
    eb = gen_progressive_enlargement(space, base, tau)
    out = {"battery": "survival-crosscheck", "seed": seed, "ok": True,
           "stopped": sum(1 for v in tau if v is not None)}
    if not azema_phi_crosscheck(eb, tau):
        _fail(out, "survival cross-check failed")
        out["instance"] = serialize.instance_to_json(eb)
        out["tau"] = [v if v is not None else None for v in tau]
    return out


BATTERIES = (
    ("connector-oracle", connector_oracle_battery),
    ("drift-factorization", drift_factorization_battery),
    ("full-viability", viability_battery),
    ("jump-identity", jump_identity_battery),
    ("inaccessible-kernel", inaccessible_battery),
    ("density-crosscheck", density_battery),
    ("survival-crosscheck", survival_battery),
)


def run_one(master: int, index: int, force: bool) -> dict:
    name, fn = BATTERIES[index % len(BATTERIES)]
    sub = master + index
    res = fn(sub, force) if name == "full-viability" else fn(sub)
    res["index"] = index
    return res


def run_verify(seed: int, instances: int, force_failure: bool = False) -> dict:
    """Run the battery rotation, instance by instance in index order."""
    results = [run_one(seed, i, force_failure) for i in range(instances)]
    summary: dict = {}
    for r in results:
        s = summary.setdefault(r["battery"], {"instances": 0, "failures": 0})
        s["instances"] += 1
        if not r["ok"]:
            s["failures"] += 1
    return {
        "engine": "driftlab",
        "seed": seed,
        "instances": instances,
        "force_failure": force_failure,
        "ok": all(r["ok"] for r in results),
        "summary": summary,
        "results": results,
    }


def first_failure(report: dict) -> Optional[dict]:
    for r in report["results"]:
        if not r["ok"]:
            return r
    return None
