"""Acceptance suite: every advertised guarantee at its advertised scale.

All checks are exact rational equalities.  Instance counts match the
package's published claims; loops run over fixed seed ranges so failures
reproduce verbatim.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

import driftlab
from driftlab.basis import Filtration, Partition, Process, SampleSpace, StoppingTime
from driftlab.calculus import is_martingale, stop
from driftlab.enlargement import (EnlargedBasis, check_condition_support, solve_factors,
                                  validate_enlargement)
from driftlab.event_kernels import (
    quotient_identity_holds,
    reduced_equation_holds,
    validate_inaccessible,
)
from driftlab.models import (
    GeneratorConfig,
    gen_random_instance,
    gen_single_filtration,
    random_adapted,
    random_inaccessible_event_data,
    random_stopping_time,
    random_viable_asset,
    tilted_component_assets,
)
from driftlab.oracle import check_deflator, lp_deflator_oracle, verify_no_deflator
from driftlab.rational import ONE, ZERO, Q, rat, rat_str
from driftlab.representation import build_representation
from driftlab.serialize import dumps, encode_exact
from driftlab.verify import density_battery, run_verify, survival_battery
from driftlab.viability import (
    deflator_from_connector,
    enlarged_connector,
    find_structure_connector,
    full_viability_verdict,
    jump_identity_check,
)
from reference import pointwise_mul, worked_six_point

KINDS = ("random", "initial", "progressive")


def _positive(Z):
    return all(v > ZERO for row in Z.values for x in row for v in x)


def test_connector_search_matches_lp_oracle_at_scale():
    """1000 single-filtration markets, two independent no-arbitrage paths.

    The combinatorial connector search and the linear-programming oracle
    must agree exactly; every found connector must yield a strictly
    positive deflator that deflates the (stopped) asset.
    """
    t0 = time.time()
    for seed in range(1000):
        rng = random.Random(f"acc-one:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 12),
                                         rng.randint(1, 4), 3)
        horizon = (None if rng.random() < 0.7
                   else random_stopping_time(rng, sp, filt))
        if rng.random() < 0.45:
            S, _, _ = random_viable_asset(rng, sp, filt,
                                          dim=rng.choice((1, 1, 2)))
        else:
            S = random_adapted(rng, sp, filt, dim=rng.choice((1, 1, 2)))

        search = find_structure_connector(sp, filt, S, horizon)
        res = lp_deflator_oracle(sp, filt, S, horizon)
        assert search.found == res.feasible, seed
        if search.found:
            Z = deflator_from_connector(sp, filt, search.connector, horizon)
            assert all(Z.scalar(i, 0) == ONE for i in range(sp.n)), seed
            assert _positive(Z), seed
            assert is_martingale(sp, filt, Z, horizon), seed
            stopped = S if horizon is None else stop(S, horizon)
            assert is_martingale(sp, filt, pointwise_mul(Z, stopped),
                                 horizon), seed
            assert check_deflator(sp, filt, S, Z, horizon), seed
        else:
            assert verify_no_deflator(sp, filt, S, horizon,
                                      res.certificate), seed
    assert time.time() - t0 < 60.0


def test_enlarged_verdict_matches_asset_sweep_at_scale():
    """1000 enlarged instances: verdict == every viable asset survives.

    Each instance carries at least 20 strictly positive base-viable
    assets; the one-shot verdict must coincide with the brute sweep that
    hunts a connector for each asset in the enlarged filtration.
    """
    for seed in range(1000):
        kind = KINDS[seed % 3]
        eb = gen_random_instance(GeneratorConfig(seed=seed,
                                                 enlargement_kind=kind))
        rng = random.Random(f"acc-two:{seed}")
        rep = build_representation(eb.space, eb.base)
        report = full_viability_verdict(eb, rep)
        family = tilted_component_assets(eb.space, eb.base, rep)
        while len(family) < 20:
            S, _, _ = random_viable_asset(rng, eb.space, eb.base)
            family.append(S)
        rejected = sum(
            1 for S in family
            if not find_structure_connector(eb.space, eb.enlarged, S,
                                            eb.horizon).found)
        assert report.verdict == (rejected == 0), seed
        assert report.verdict == report.condition_support, seed


def set_partitions(items):
    """Every partition of the list items, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for j in range(len(part)):
            yield part[:j] + [[first] + part[j]] + part[j + 1:]
        yield [[first]] + part


def one_tick_filtrations(n):
    """Every chain initial <= pre(1) <= at(1) of partitions of n outcomes."""
    parts = [Partition(blocks) for blocks in set_partitions(list(range(n)))]
    return [Filtration(a, ((b, c),)) for a in parts for b in parts if b.refines(a)
            for c in parts if c.refines(b)]


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 2, 3, 5)], ids=["uniform", "weighted"])
def test_verdict_holds_on_every_small_world(weights):
    """Every one-tick enlargement of four outcomes: the verdict against the oracle.

    Pairs every one-tick base filtration with every enlarged one that
    validate_enlargement accepts, horizon 1.  The verdict must be true
    exactly when the oracle prices every tilted component asset of the
    base on the enlarged filtration; the oracle shares nothing with the
    calculus stack, so the reference is independent of the verdict.  A
    true verdict's Z must deflate the driver (check_deflator), a false
    one's witness certificate must re-verify (verify_no_deflator).
    """
    total = sum(weights)
    space = SampleSpace(tuple(f"w{i}" for i in range(len(weights))),
                        [Q(w, total) for w in weights])
    horizon = StoppingTime.constant(space.n, 1)
    filtrations = one_tick_filtrations(space.n)
    pairs = false = 0
    for base in filtrations:
        rep = build_representation(space, base)
        assets = tilted_component_assets(space, base, rep)
        for enlarged in filtrations:
            eb = EnlargedBasis(space, base, enlarged, horizon)
            if not validate_enlargement(eb).ok:
                continue
            pairs += 1
            report = full_viability_verdict(eb, rep)
            priced = all(lp_deflator_oracle(space, enlarged, S, horizon).feasible
                         for S in assets)
            assert report.verdict == priced, (base, enlarged)
            if report.verdict:
                assert check_deflator(space, enlarged, rep.W, report.deflator, horizon)
            else:
                false += 1
                wit = report.witness
                assert verify_no_deflator(space, enlarged, wit["asset"], horizon,
                                          wit["certificate"]), (base, enlarged)
    assert (len(filtrations), pairs, false) == (154, 3644, 2315)


def test_forced_failures_yield_certified_witnesses():
    """200 rigged instances: verdict false plus a checkable certificate."""
    for seed in range(200):
        kind = KINDS[seed % 3]
        eb = gen_random_instance(GeneratorConfig(
            seed=seed, enlargement_kind=kind, force_condition_failure=True))
        report = full_viability_verdict(eb)
        assert not report.verdict, seed
        w = report.witness
        assert w is not None, seed
        assert find_structure_connector(eb.space, eb.base,
                                        w["asset"]).found, seed
        assert verify_no_deflator(eb.space, eb.enlarged, w["asset"],
                                  eb.horizon, w["certificate"]), seed


def test_closed_form_witness_certificates_agree_with_the_oracle():
    """1200 forced false verdicts (seeds 0-399, all kinds): closed-form certificate vs simplex.

    Each witness certificate re-verifies (verify_no_deflator), and the
    global oracle finds no deflator for the witness either.  Its only
    nonzero equality multipliers sit on the violating atom's martingale
    row and the asset row after it.  Zeroing the asset row's multiplier,
    or flipping the sign of the martingale row's, must make the
    certificate fail.  The tick-1 witnesses carry Farkas vectors, the
    later ones gap bounds at 0.
    """
    reasons = Counter()
    for seed in range(400):
        for kind in KINDS:
            eb = gen_random_instance(GeneratorConfig(
                seed=seed, enlargement_kind=kind, force_condition_failure=True))
            w = full_viability_verdict(eb).witness
            cert, args = w["certificate"], (eb.space, eb.enlarged, w["asset"], eb.horizon)
            assert verify_no_deflator(*args, cert), (seed, kind)
            assert not lp_deflator_oracle(*args).feasible, (seed, kind)
            ys = cert["multipliers_eq"]
            row = cert["rows_eq"].index({"kind": "martingale", "tick": w["tick"],
                                         "atom": w["atom"], "component": None})
            assert [j for j, y in enumerate(ys) if rat(y)] == [row, row + 1], (seed, kind)
            for j, y in ((row + 1, ZERO), (row, -rat(ys[row]))):
                bad = ys[:j] + [rat_str(y)] + ys[j + 1:]
                assert not verify_no_deflator(*args, {**cert, "multipliers_eq": bad}), (seed, kind)
            reasons[w["tick"] == 1, cert["reason"]] += 1
    assert reasons == {(True, "martingale-system-infeasible"): 962,
                       (False, "positivity-unreachable"): 238}


def one_period_markets():
    """Every one-period market with m = 2, 3, 4 children, weighted by the first m of 1, 2, 3, 5.

    The asset starts at 0 and jumps by a value in {-2..2} (dimension 1) or
    {-1, 0, 1}^2 (dimension 2) on each child.
    """
    scalar = [(Q(a),) for a in range(-2, 3)]
    pairs = [(Q(a), Q(b)) for a in range(-1, 2) for b in range(-1, 2)]
    for m in (2, 3, 4):
        weights = (1, 2, 3, 5)[:m]
        space = SampleSpace(tuple(f"h{h}" for h in range(m)),
                            [Q(w, sum(weights)) for w in weights])
        top = Partition([range(m)])
        filt = Filtration(top, ((top, Partition([[h] for h in range(m)])),))
        for jumps in (scalar, pairs):
            zero = (ZERO,) * len(jumps[0])
            for row in itertools.product(jumps, repeat=m):
                yield space, filt, Process(len(zero), [(zero, s) for s in row])


def test_connector_search_holds_on_every_one_period_market():
    """The connector search against the oracle on every small one-period market.

    one_period_markets lists 8146 markets.  The search must find a
    connector exactly when the oracle finds a deflator, and every found
    connector's deflator must pass check_deflator.  Ties and dimension two
    are where an atom's optimum is a face and the simplex decides.
    """
    markets = blocked = 0
    for space, filt, S in one_period_markets():
        markets += 1
        search = find_structure_connector(space, filt, S)
        assert search.found == lp_deflator_oracle(space, filt, S).feasible, S.values
        if search.found:
            Z = deflator_from_connector(space, filt, search.connector)
            assert check_deflator(space, filt, S, Z), S.values
        else:
            blocked += 1
    assert (markets, blocked) == (8146, 5900)


def test_jump_identity_holds_everywhere_at_scale():
    """1000 support-clean instances, identity exact at every single jump,
    once with the trivial base connector and once with a random one."""
    checked = 0
    seed = 0
    while checked < 1000:
        kind = KINDS[seed % 3]
        eb = gen_random_instance(GeneratorConfig(seed=seed,
                                                 enlargement_kind=kind))
        seed += 1
        if not check_condition_support(eb).ok:
            continue
        rng = random.Random(f"acc-three:{seed}")
        rep = build_representation(eb.space, eb.base)
        factors = solve_factors(eb, rep)
        from driftlab.models import random_martingale
        for D in (None, random_martingale(rng, eb.space, eb.base, cap=Q(7, 8))):
            K, Y = enlarged_connector(eb, rep, factors, D)
            assert jump_identity_check(eb, rep, factors, K, D) is None, seed
        checked += 1
    assert seed <= 3000  # roughly half the random draws are support-clean


def test_worked_instance_golden_values():
    """Six-outcome instance: oracle path first, then the engine must
    reproduce the frozen multiplier, connector, and deflator values."""
    six = worked_six_point()
    eb, X = six["eb"], six["asset"]

    golden_z1 = {0: Q(3, 4), 1: Q(3, 4), 2: Q(3, 2),
                 3: Q(3, 2), 4: Q(3, 4), 5: Q(3, 4)}
    golden_dy = {0: Q(1, 4), 1: Q(1, 4), 2: Q(-1, 2),
                 3: Q(-1, 2), 4: Q(1, 4), 5: Q(1, 4)}

    # independent oracle path first: the frozen deflator must be accepted
    Z_golden = Process.from_jumps(
        6, 1, lambda i, k: golden_z1[i] - ONE, start=(ONE,))
    assert check_deflator(eb.space, eb.enlarged, X, Z_golden, eb.horizon)
    assert lp_deflator_oracle(eb.space, eb.enlarged, X, eb.horizon).feasible

    # engine path: minimal-norm multiplier per enlarged pre-tick atom
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    for i in (0, 1, 3):
        assert factors.phi.at(i, 1) == (Q(2, 3), Q(-2, 3))
    for i in (2, 4, 5):
        assert factors.phi.at(i, 1) == (Q(-2, 3), Q(2, 3))

    _, Y = enlarged_connector(eb, rep, factors)
    for i in range(6):
        assert Y.jump(i, 1)[0] == golden_dy[i]

    report = full_viability_verdict(eb, rep)
    assert report.verdict
    Z = report.deflator
    assert Z == Z_golden

    # conditional expectations against the enlarged left-limit algebra
    from driftlab.basis import cond_expect
    pre = eb.enlarged.pre(1)
    z1 = [Z.scalar(i, 1) for i in range(6)]
    assert cond_expect(eb.space, pre, z1) == (ONE,) * 6
    zdx = [Z.scalar(i, 1) * X.jump(i, 1)[0] for i in range(6)]
    assert cond_expect(eb.space, pre, zdx) == (ZERO,) * 6


def test_common_deflator_covers_every_driving_component():
    """On each verdict-true instance one deflator must work for all
    driver components simultaneously, stopped at the horizon."""
    confirmed = 0
    for seed in range(700):
        kind = KINDS[seed % 3]
        eb = gen_random_instance(GeneratorConfig(seed=seed,
                                                 enlargement_kind=kind))
        rep = build_representation(eb.space, eb.base)
        report = full_viability_verdict(eb, rep)
        if not report.verdict:
            continue
        confirmed += 1
        Z = report.deflator
        assert _positive(Z), seed
        assert is_martingale(eb.space, eb.enlarged, Z, eb.horizon), seed
        factors = solve_factors(eb, rep)
        for comp in factors.N.components():
            ZW = pointwise_mul(Z, stop(comp, eb.horizon))
            assert is_martingale(eb.space, eb.enlarged, ZW, eb.horizon), seed
    assert confirmed >= 300


def test_density_and_survival_crosschecks_at_scale():
    """200 initial-enlargement and 200 progressive-enlargement instances;
    the multiplier pairing must match the density and survival ratios at
    every live jump."""
    for seed in range(200):
        out = density_battery(seed)
        assert out["ok"], out
        out = survival_battery(seed)
        assert out["ok"], out


def test_inaccessible_kernel_identities_bulk():
    """10000 randomized kernel data sets, identities exact per cell."""
    for seed in range(10_000):
        data = random_inaccessible_event_data(random.Random(f"acc-k:{seed}"))
        validate_inaccessible(data)
        for k in range(len(data.q)):
            assert reduced_equation_holds(data, k), seed
            assert quotient_identity_holds(data, k), seed


def test_reports_are_byte_deterministic():
    """Same seed, same bytes: across repeated runs and across interpreters.

    The two fresh interpreters run under different string-hash seeds, so
    no report byte may hang on set or dict order of hashed strings.
    """
    first = dumps(encode_exact(run_verify(seed=31, instances=48)))
    again = dumps(encode_exact(run_verify(seed=31, instances=48)))
    assert first == again
    src = str(pathlib.Path(driftlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "driftlab.cli", "verify-theorems",
            "--seed", "31", "--instances", "48"]
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        run = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=600)
        assert run.stdout == first.encode("utf-8")
