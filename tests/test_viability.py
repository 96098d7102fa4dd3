import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.basis import Process, StoppingTime
from driftlab.calculus import is_martingale, pointwise_mul, stop
from driftlab.enlargement import solve_factors
from driftlab.errors import ConnectorInvalid, NotAdapted, NotAStoppingTime, SupportConditionFailed
from driftlab.linfeas import OPTIMAL, solve_lp
from driftlab.models import (
    GeneratorConfig,
    gen_random_instance,
    gen_single_filtration,
    random_adapted,
    random_martingale,
    random_stopping_time,
    random_viable_asset,
    tilted_component_assets,
    worked_four_point,
    worked_six_point,
)
from driftlab.oracle import check_deflator, lp_deflator_oracle, verify_no_deflator
from driftlab.rational import ONE, ZERO, Q
from driftlab.representation import build_representation
from driftlab.serialize import dumps, encode_exact, process_to_json, viability_report_to_json
from driftlab.viability import (
    _atom_program,
    deflator_from_connector,
    enlarged_connector,
    find_structure_connector,
    full_viability_verdict,
    g_connector,
    is_structure_connector,
    jump_identity_check,
    solve_accessible_K,
    witness_asset,
)

KINDS = ("random", "initial", "progressive")

# SHA-256 of the connector search outcomes hashed by
# test_connector_results_are_pinned, taken from the Fraction-entry tableau
# before rows became integers over a row denominator.
PINNED_CONNECTOR_DIGEST = "990cf406ac5d33b2f67920430411cb3c91834ede51f2301b6d097ebcc1a3baa2"

# SHA-256 of the viability reports and transferred connectors hashed by
# test_viability_reports_are_pinned, taken while W - drift(W) was still
# built through the general enlarged compensator.
PINNED_VIABILITY_DIGEST = "2d034d93620d23d691b0eed8061089cb23807b34d3f44d46419655297af7a996"


def test_six_point_verdict_and_deflator():
    six = worked_six_point()
    report = full_viability_verdict(six["eb"])
    assert report.verdict
    assert report.condition_support
    Z = report.deflator
    got = sorted({Z.scalar(i, 1) for i in range(6)})
    assert got == [Q(3, 4), Q(3, 2)]
    assert is_martingale(six["eb"].space, six["eb"].enlarged, Z)


def test_six_point_deflates_the_asset():
    six = worked_six_point()
    report = full_viability_verdict(six["eb"])
    ZS = pointwise_mul(report.deflator, six["asset"])
    assert is_martingale(six["eb"].space, six["eb"].enlarged, ZS,
                         horizon=six["eb"].horizon)


def test_four_point_verdict_false_with_witness():
    four = worked_four_point()
    report = full_viability_verdict(four["eb"])
    assert not report.verdict
    assert not report.condition_support
    w = report.witness
    assert w is not None
    assert w["tick"] == 1
    assert w["atom"] == [3]
    assert verify_no_deflator(four["eb"].space, four["eb"].enlarged,
                              w["asset"], four["eb"].horizon, w["certificate"])
    # the witness is fine in the base filtration
    assert find_structure_connector(four["eb"].space, four["eb"].base,
                                    w["asset"]).found


def test_accessible_solver_gates_on_support():
    four = worked_four_point()
    rep = build_representation(four["eb"].space, four["eb"].base)
    factors = solve_factors(four["eb"], rep)
    with pytest.raises(SupportConditionFailed):
        solve_accessible_K(four["eb"], rep, factors)


@given(st.integers(min_value=0, max_value=250))
def test_connector_gives_positive_deflator(seed):
    rng = random.Random(f"conn:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 9), rng.randint(1, 3), 3)
    S, D_known, Z_known = random_viable_asset(rng, sp, filt)
    search = find_structure_connector(sp, filt, S)
    assert search.found
    Z = deflator_from_connector(sp, filt, search.connector)
    assert all(Z.scalar(i, k) > ZERO
               for i in range(sp.n) for k in range(filt.K + 1))
    assert all(Z.scalar(i, 0) == ONE for i in range(sp.n))
    assert is_martingale(sp, filt, Z)
    assert is_martingale(sp, filt, pointwise_mul(Z, S))


@pytest.mark.parametrize("jumps, found", [
    # nonnegative jump with positive mass on a gain: free lunch
    ([(1,), (0,)], False),
    ([(1, 0), (-1, 0), (0, 1)], False),
    ([(1, 0), (-1, 0), (0, 1), (0, -1)], True),
], ids=["one-sided-bet", "zero-on-hull-edge", "zero-inside-hull"])
def test_atom_connector_agrees_with_oracle(jumps, found):
    """One tick: a connector exists iff 0 is strictly inside the jump hull."""
    from driftlab.basis import Filtration, Partition, SampleSpace
    m, dim = len(jumps), len(jumps[0])
    sp = SampleSpace(tuple(f"w{h}" for h in range(m)), (Q(1, m),) * m)
    top = Partition([list(range(m))])
    filt = Filtration(top, ((top, Partition([[h] for h in range(m)])),))
    S = Process.from_jumps(m, 1, lambda i, k: tuple(Q(v) for v in jumps[i]),
                           start=(ONE,) * dim, dim=dim)
    search = find_structure_connector(sp, filt, S)
    oracle = lp_deflator_oracle(sp, filt, S)
    assert search.found == oracle.feasible == found
    if found:
        Z = deflator_from_connector(sp, filt, search.connector)
        assert check_deflator(sp, filt, S, Z)
    else:
        assert (search.tick, search.atom) == (1, tuple(range(m)))
        assert oracle.certificate["reason"] == "positivity-unreachable"
        assert verify_no_deflator(sp, filt, S, None, oracle.certificate)


@given(st.integers(min_value=0, max_value=150))
def test_jump_identity_and_g_connector(seed):
    kind = KINDS[seed % 3]
    eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=kind))
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    from driftlab.enlargement import check_condition_support
    if not check_condition_support(eb).ok:
        return
    K, Y = enlarged_connector(eb, rep, factors)
    assert jump_identity_check(eb, rep, factors, K) is None

    rng = random.Random(f"gc:{seed}")
    S, D, _ = random_viable_asset(rng, eb.space, eb.base)
    DG = g_connector(eb, rep, factors, S, D)
    assert is_structure_connector(eb.space, eb.enlarged, S, DG,
                                  horizon=eb.horizon) is None

    # An asset bumped on one outcome of a tick atom is not base-adapted.
    spots = [(max(b), k) for k in range(1, eb.base.K + 1) for b in eb.base.at(k).blocks
             if len(b) > 1]
    if spots:
        i, k = rng.choice(spots)
        rows = [list(row) for row in S.values]
        rows[i][k] = tuple(x + ONE for x in rows[i][k])
        with pytest.raises(NotAdapted):
            g_connector(eb, rep, factors, Process(S.dim, rows), D)


def test_witness_asset_separates_the_filtrations():
    four = worked_four_point()
    from driftlab.enlargement import check_condition_support
    rep = build_representation(four["eb"].space, four["eb"].base)
    support = check_condition_support(four["eb"])
    S = witness_asset(four["eb"], rep, support)
    assert find_structure_connector(four["eb"].space, four["eb"].base, S).found
    res = lp_deflator_oracle(four["eb"].space, four["eb"].enlarged, S,
                             four["eb"].horizon)
    assert not res.feasible


@pytest.mark.parametrize("D, reason", [
    (Process.zeros(2, 1, dim=2), "not-scalar"),
    (Process.from_scalar_paths([[0, 0], [1, 1]]), "not-adapted"),
    (Process.from_scalar_paths([[1, 1], [1, 1]]), "nonzero-start"),
    (Process.from_scalar_paths([[0, "1/2"], [0, "1/2"]]), "not-martingale"),
    (Process.from_scalar_paths([[0, 1], [0, -1]]), "jump-at-least-one"),
    # breaks the martingale property and the jump bound: the first is graver
    (Process.from_scalar_paths([[0, 2], [0, 2]]), "not-martingale"),
    # a deflating connector, but not one for the drifting asset of this case
    (Process.zeros(2, 1), "identity-failed"),
])
def test_invalid_connectors_are_rejected(D, reason):
    from driftlab.basis import Filtration, Partition, SampleSpace
    sp = SampleSpace(("u", "d"), (Q(1, 2), Q(1, 2)))
    top = Partition([[0, 1]])
    filt = Filtration(top, ((top, Partition([[0], [1]])),))
    S = Process.from_scalar_paths([[0, 1], [0, 0]] if reason == "identity-failed"
                                  else [[0, 1], [0, -1]])
    assert is_structure_connector(sp, filt, S, D)["reason"] == reason
    if reason == "identity-failed":
        Z = deflator_from_connector(sp, filt, D)
        assert Z.values == Process.from_scalar_paths([[1, 1], [1, 1]]).values
        return
    with pytest.raises(ConnectorInvalid) as exc:
        deflator_from_connector(sp, filt, D)
    assert exc.value.detail["reason"] == reason


def _search_record(res):
    return [res.found, res.tick, None if res.atom is None else list(res.atom),
            None if res.connector is None else res.connector.values]


def test_connector_results_are_pinned():
    """The connector search's outcomes and connector values do not drift.

    Connector values reach `deflator` reports byte for byte, and the
    search takes whichever optimal vertex the simplex reaches, so any
    change to the simplex must keep Bland's basis path.  Hashed: the
    first 40 `acc-one` markets (drawn as in the oracle digest test), and
    the tilted component assets of ten generated instances searched in
    the enlarged filtration up to the horizon.
    """
    records = []
    for seed in range(40):
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
        records.append(_search_record(find_structure_connector(sp, filt, S, horizon)))
    for seed in range(10):
        eb = gen_random_instance(GeneratorConfig(seed=seed,
                                                 enlargement_kind=KINDS[seed % 3]))
        rep = build_representation(eb.space, eb.base)
        for S in tilted_component_assets(eb.space, eb.base, rep):
            records.append(_search_record(
                find_structure_connector(eb.space, eb.enlarged, S, eb.horizon)))
    digest = hashlib.sha256(dumps(encode_exact(records)).encode("utf-8")).hexdigest()
    assert digest == PINNED_CONNECTOR_DIGEST


def test_viability_reports_are_pinned():
    """Viability reports and transferred connectors do not drift.

    The driving process minus its enlarged drift is the integrator of
    the connector Y, hence of the deflator exp(-Y) and of every
    transferred connector.  Hashed: the `check-viability` report of
    `gen_random_instance` seeds 0-29, unforced and forced, and on the
    support-clean ones Y from a random base connector (jumps capped at
    7/8).
    """
    records = []
    for seed in range(30):
        for forced in (False, True):
            eb = gen_random_instance(GeneratorConfig(seed=seed,
                                                     force_condition_failure=forced))
            rep = build_representation(eb.space, eb.base)
            report = full_viability_verdict(eb, rep)
            records.append(viability_report_to_json(report))
            if report.condition_support:
                D = random_martingale(random.Random(f"pin:{seed}:{forced}"),
                                      eb.space, eb.base, cap=Q(7, 8))
                _, Y = enlarged_connector(eb, rep, report.factors, D)
                records.append(process_to_json(Y))
    digest = hashlib.sha256(dumps(records).encode("utf-8")).hexdigest()
    assert digest == PINNED_VIABILITY_DIGEST


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=2), st.data())
def test_driftless_atom_program_returns_p(weights, dim, data):
    """Where sum p_h s_h = 0 the atom's program has q = p, t = 1 as its optimum.

    This is the closed form find_structure_connector uses instead of
    posing the program on such atoms.
    """
    p = [Q(w, sum(weights)) for w in weights]
    raw = [data.draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                              min_size=dim, max_size=dim)) for _ in p]
    mean = [sum((ph * r[c] for ph, r in zip(p, raw)), ZERO) for c in range(dim)]
    s_jumps = [tuple(r[c] - mean[c] for c in range(dim)) for r in raw]
    res = solve_lp(*_atom_program(p, s_jumps))
    assert res.status == OPTIMAL
    assert res.value == ONE
    assert list(res.x[:len(p)]) == p


def test_martingale_asset_poses_no_program(monkeypatch):
    """A base martingale has no drift on any atom: no LP, and D is zero."""
    import driftlab.viability as viability
    calls = []

    def counting_solve_lp(*args):
        calls.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(viability, "solve_lp", counting_solve_lp)
    for seed in range(20):
        rng = random.Random(f"mart:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 9), rng.randint(1, 3), 3)
        search = find_structure_connector(sp, filt, random_martingale(rng, sp, filt))
        assert search.found
        assert all(x == (ZERO,) for row in search.connector.values for x in row)
    assert calls == []
    # an asset with drift still reaches the program
    from driftlab.basis import Filtration, Partition, SampleSpace
    sp = SampleSpace(("u", "d"), (Q(1, 2), Q(1, 2)))
    top = Partition([[0, 1]])
    filt = Filtration(top, ((top, Partition([[0], [1]])),))
    assert find_structure_connector(sp, filt, Process.from_scalar_paths([[0, 2], [0, -1]])).found
    assert len(calls) == 1


def test_a_horizon_that_is_not_a_stopping_time_is_refused():
    """The progressive horizon of this instance straddles a base atom."""
    eb = gen_random_instance(GeneratorConfig(seed=0, enlargement_kind="progressive"))
    S = random_martingale(random.Random("straddle"), eb.space, eb.base)
    D = Process.zeros(eb.space.n, eb.base.K)
    for call in (lambda: find_structure_connector(eb.space, eb.base, S, eb.horizon),
                 lambda: deflator_from_connector(eb.space, eb.base, D, eb.horizon),
                 lambda: lp_deflator_oracle(eb.space, eb.base, S, eb.horizon)):
        with pytest.raises(NotAStoppingTime) as exc:
            call()
        assert exc.value.detail == {"tick": 2, "atom": [3, 4, 5]}
