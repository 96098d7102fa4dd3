import dataclasses
import hashlib
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from driftlab.basis import (Filtration, Partition, Process, SampleSpace, StoppingTime,
                            alive_atoms, is_stopping_time)
from driftlab.calculus import (compensator, is_adapted, is_martingale, jump_mean,
                               martingale_violation, stoch_integral, stop)
from driftlab.enlargement import (check_condition_support, compensator_transfer_check,
                                  drift_operator, factorization_check, solve_factors, tilde,
                                  validate_enlargement)
from driftlab.errors import (ConnectorInvalid, DimensionMismatch, InternalInvariant,
                             NotAdapted, NotAMartingale, NotARandomTime, NotAStoppingTime,
                             SupportConditionFailed, Unsolvable)
from driftlab.linfeas import INFEASIBLE, OPTIMAL, solve_lp
from driftlab.models import (
    GeneratorConfig,
    gen_random_instance,
    gen_single_filtration,
    random_adapted,
    random_martingale,
    random_stopping_time,
    random_viable_asset,
    tilted_component_assets,
)
from driftlab.oracle import (arbitrage_certificate, check_deflator, lp_deflator_oracle,
                            verify_no_deflator)
from driftlab.rational import ONE, ZERO, Q
from driftlab.representation import build_representation
from driftlab.serialize import dumps, encode_exact, process_to_json, viability_report_to_json
from driftlab.viability import (
    _atom_program,
    _atom_weights,
    _connector_violation,
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
from reference import (connector_search_reference, pointwise_mul, worked_four_point,
                       worked_six_point)

KINDS = ("random", "initial", "progressive")

# SHA-256 of the connector search outcomes hashed by
# test_connector_results_are_pinned, taken from the Fraction-entry tableau
# before rows became integers over a row denominator.
PINNED_CONNECTOR_DIGEST = "990cf406ac5d33b2f67920430411cb3c91834ede51f2301b6d097ebcc1a3baa2"

# SHA-256 of the viability reports and transferred connectors hashed by
# test_viability_reports_are_pinned, taken once the false verdicts' witness
# certificates were written in closed form rather than by the global simplex.
PINNED_VIABILITY_DIGEST = "26a99438df4668a7d79530c442c58f941fb48514b7f4e48dc560361362552020"

# SHA-256 of the found/tick/atom records of the 240 search_pool markets
# hashed by test_search_decides_without_building_the_connector, taken while
# every found search still built its connector.
PINNED_SEARCH_OUTCOME_DIGEST = "e715d1037c6481f382be51eea53f5046c58ffe8199f014173dbf92d997edeac5"

# SHA-256 of the viability reports and enlarged connectors (K, Y) hashed by
# test_tilted_viability_reports_are_pinned, taken before the factors and the
# connector for D = None were cached on the enlarged basis.
PINNED_TILTED_VIABILITY_DIGEST = \
    "f46c778e18bb4ea71981f31e286fc5de9d04d11b2cefa622b99e2ba8ffa244e4"


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
    with pytest.raises(SupportConditionFailed):
        solve_accessible_K(four["eb"], rep)


def test_accessible_solver_gates_on_the_base_connector():
    """After the support condition, D must be scalar, then base-adapted, then a base martingale.

    A vector D raises DimensionMismatch even when it is not adapted; a
    martingale of the enlarged filtration that the base cannot see raises
    NotAdapted; an adapted D with a unit drift per tick raises
    NotAMartingale.  On an instance failing the support condition, even a
    vector D raises SupportConditionFailed.
    """
    seen = Counter()
    for seed in range(60):
        eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=KINDS[seed % 3]))
        rng = random.Random(f"gates:{seed}")
        rep = build_representation(eb.space, eb.base)
        hidden = random_martingale(rng, eb.space, eb.enlarged)
        vector = Process(2, tuple(tuple(x + x for x in row) for row in hidden.values))
        if not check_condition_support(eb).ok:
            with pytest.raises(SupportConditionFailed):
                solve_accessible_K(eb, rep, vector)
            seen["support"] += 1
            continue
        D = random_martingale(rng, eb.space, eb.base)
        solve_accessible_K(eb, rep, D)
        with pytest.raises(DimensionMismatch):
            solve_accessible_K(eb, rep, vector)
        if not is_adapted(eb.base, hidden):
            with pytest.raises(NotAdapted):
                solve_accessible_K(eb, rep, hidden)
            seen["hidden"] += 1
        drifting = Process(1, tuple(tuple((x + k,) for k, (x,) in enumerate(row))
                                    for row in D.values))
        with pytest.raises(NotAMartingale):
            solve_accessible_K(eb, rep, drifting)
        seen["clean"] += 1
    assert min(seen["support"], seen["hidden"], seen["clean"]) >= 5, seen


def test_closed_form_connector_is_the_integral_of_K():
    """Y built from its closed form equals K . factors.Wt, value for value.

    On the support-clean `gen_random_instance` draws of seeds 0-399, all
    three kinds: enlarged_connector's Y for D = 0 and for a random base
    martingale (jumps capped at 7/8), the verdict's connector, and
    g_connector's Y for a viable asset's base connector.  The reference is
    the general per-outcome integral of solve_accessible_K's K against the
    factors' Wt, the route the engine took before Y had its closed form.
    """
    clean = 0
    for seed in range(400):
        for kind in KINDS:
            eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=kind))
            if not check_condition_support(eb).ok:
                continue
            clean += 1
            rep = build_representation(eb.space, eb.base)
            factors = solve_factors(eb, rep)
            rng = random.Random(f"closed-form:{seed}:{kind}")
            D = random_martingale(rng, eb.space, eb.base, cap=Q(7, 8))
            S, D_S, _ = random_viable_asset(rng, eb.space, eb.base)

            def integral(D_):
                return stoch_integral(eb.enlarged, solve_accessible_K(eb, rep, D_), factors.Wt)

            for D_ in (None, D):
                K, Y = enlarged_connector(eb, rep, factors, D_)
                assert K == solve_accessible_K(eb, rep, D_)
                assert Y == integral(D_)
            assert full_viability_verdict(eb, rep).connector == integral(None)
            assert g_connector(eb, rep, factors, S, D_S) == integral(D_S)
    assert clean >= 300, clean


def unit_sum_broken(atoms_of):
    """_connector_atoms with q_0 raised by 1/7 on the first atom, so sum q != 1 there."""
    def broken(eb, D):
        atoms = atoms_of(eb, D)
        k, c, ekids, inside, pbar, q = atoms[0]
        atoms[0] = (k, c, ekids, inside, pbar, (q[0] + Q(1, 7), *q[1:]))
        return atoms
    return broken


def test_connector_row_check_catches_a_broken_unit_sum(monkeypatch):
    """With sum q != 1 on one atom, every path that builds Y refuses it.

    The verdict and g_connector solve no K, so Y's row check
    sum_h pbar_h y_h = 0 raises InternalInvariant; enlarged_connector and
    solve_accessible_K solve K first, whose residual raises Unsolvable.
    """
    import driftlab.viability as viability
    cases = []
    for seed in range(30):
        eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=KINDS[seed % 3]))
        if check_condition_support(eb).ok:
            rng = random.Random(f"row-check:{seed}")
            rep = build_representation(eb.space, eb.base)
            cases.append((eb, rep, solve_factors(eb, rep), random_viable_asset(rng, eb.space, eb.base)))
    assert len(cases) >= 5
    monkeypatch.setattr(viability, "_connector_atoms", unit_sum_broken(viability._connector_atoms))
    for eb, rep, factors, (S, D_S, _) in cases:
        with pytest.raises(InternalInvariant):
            full_viability_verdict(eb, rep)
        with pytest.raises(InternalInvariant):
            g_connector(eb, rep, factors, S, D_S)
        for D in (None, D_S):
            with pytest.raises(Unsolvable):
                enlarged_connector(eb, rep, factors, D)
            with pytest.raises(Unsolvable):
                solve_accessible_K(eb, rep, D)


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


def tilts_an_atom(eb) -> bool:
    """Whether some alive enlarged atom c has pbar != p: mass(kid & c) / mass(c) != p_kid."""
    space, base = eb.space, eb.base
    for k, c, _ in alive_atoms(eb.enlarged, eb.horizon):
        kids = base.child_map[(k, base.pre(k).block_of(min(c)))]
        p = space.split(kids)
        if any(space.mass(kid & c) / space.mass(c) != ph for kid, ph in zip(kids, p)):
            return True
    return False


def test_tilted_viability_reports_are_pinned():
    """Viability reports and enlarged connectors do not drift where pbar differs from p.

    PINNED_VIABILITY_DIGEST's draws all have pbar = p, so it cannot tell
    Jacod's tilt from none.  Hashed here: the support-clean, unforced
    `gen_random_instance` draws of seeds 0-399, all three kinds, on which
    some alive enlarged atom has pbar != p (48 of 557); per draw, the
    `check-viability` report and enlarged_connector's (K, Y) for D = None
    and for a random base connector (jumps capped at 7/8).
    """
    records = []
    clean = 0
    for seed in range(400):
        for kind in KINDS:
            eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=kind))
            if not check_condition_support(eb).ok:
                continue
            clean += 1
            if not tilts_an_atom(eb):
                continue
            rep = build_representation(eb.space, eb.base)
            report = full_viability_verdict(eb, rep)
            records.append(viability_report_to_json(report))
            D = random_martingale(random.Random(f"tilt:{seed}:{kind}"), eb.space, eb.base,
                                  cap=Q(7, 8))
            for D_ in (None, D):
                records.append([process_to_json(X)
                                for X in enlarged_connector(eb, rep, report.factors, D_)])
    assert (len(records), clean) == (3 * 48, 557)
    digest = hashlib.sha256(dumps(records).encode("utf-8")).hexdigest()
    assert digest == PINNED_TILTED_VIABILITY_DIGEST


def refuse_solve(*args, **kwargs):
    raise AssertionError("the factors were solved again")


def test_factors_and_bare_connector_are_solved_once_per_basis(monkeypatch):
    """solve_factors' result and the connector for D = None are cached on the basis.

    On `gen_random_instance` seeds 0-399, all three kinds, plain and
    forced: a second solve_factors with the same rep returns the same
    object, and with the multinomial solver refused the verdict still
    succeeds and carries the caller's factors.  A freshly built rep gets a
    fresh solve with equal phi and Wt.  On support-clean draws
    enlarged_connector's Y for D = None is the verdict's connector object,
    and equals Y on the basis rebuilt from its init fields.  A call that
    raises (a refused solve, a failed support gate, a broken unit sum)
    leaves the caches it did not finish empty.
    """
    import driftlab.enlargement as enlargement
    import driftlab.viability as viability
    clean = 0
    for seed in range(400):
        for kind in KINDS:
            for forced in (False, True):
                eb = gen_random_instance(GeneratorConfig(
                    seed=seed, enlargement_kind=kind, force_condition_failure=forced))
                rep = build_representation(eb.space, eb.base)
                factors = solve_factors(eb, rep)
                assert solve_factors(eb, rep) is factors
                with monkeypatch.context() as patch:
                    patch.setattr(enlargement, "_multinomial_solve", refuse_solve)
                    report = full_viability_verdict(eb, rep)
                    fresh = dataclasses.replace(eb)
                    with pytest.raises(AssertionError):
                        solve_factors(fresh, rep)
                    if report.verdict:
                        with pytest.raises(AssertionError):
                            full_viability_verdict(fresh, rep)
                    assert not fresh._factors and not fresh._connectors
                assert report.factors is (factors if report.verdict else None)
                again = solve_factors(eb, build_representation(eb.space, eb.base))
                assert again is not factors
                assert (again.phi, again.Wt) == (factors.phi, factors.Wt)
                if not report.verdict:
                    with pytest.raises(SupportConditionFailed):
                        enlarged_connector(eb, rep, factors, None)
                    assert not eb._connectors
                    continue
                clean += 1
                assert enlarged_connector(eb, rep, factors, None)[1] is report.connector
                fresh = dataclasses.replace(eb)
                assert "_connectors" not in vars(fresh)
                assert enlarged_connector(fresh, rep, factors, None)[1] == report.connector
                fresh = dataclasses.replace(eb)
                with monkeypatch.context() as patch:
                    patch.setattr(viability, "_connector_atoms",
                                  unit_sum_broken(viability._connector_atoms))
                    with pytest.raises(InternalInvariant):
                        full_viability_verdict(fresh, rep)
                    with pytest.raises(Unsolvable):
                        enlarged_connector(fresh, rep, factors, None)
                assert not fresh._connectors
    assert clean >= 500, clean


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


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=6), st.data())
def test_scalar_atom_weights_agree_with_the_simplex(weights, data):
    """On a drifting scalar atom the closed form decides as the program does.

    Jumps come from a small grid, so ties at the extreme jump and a zero
    extreme (a zero floor) both occur.  Where one child attains the
    extreme jump the optimum is unique, so the closed-form q must equal
    the simplex's; on a tie q is the simplex's vertex itself.
    """
    p = [Q(w, sum(weights)) for w in weights]
    grid = [Q(-2), -ONE, Q(-1, 2), ZERO, Q(1, 2), ONE, Q(3)]
    s = data.draw(st.lists(st.sampled_from(grid), min_size=len(p), max_size=len(p)))
    mu = sum((ph * sh for ph, sh in zip(p, s)), ZERO)
    assume(mu != ZERO)
    s_jumps = [(sh,) for sh in s]
    q = _atom_weights(p, s_jumps)
    res = solve_lp(*_atom_program(p, s_jumps))
    assert (q is None) == (res.status == INFEASIBLE or res.value <= ZERO)
    if q is not None:
        assert q == list(res.x[:len(p)])


def dense_atom_program(p, s_jumps):
    """One atom's martingale-measure program with dense rows: the reference for _atom_program."""
    m, dim = len(p), len(s_jumps[0])
    A_eq = [[ONE] * m + [ZERO]]
    A_eq += [[sj[c] for sj in s_jumps] + [ZERO] for c in range(dim)]
    b_eq = [ONE] + [ZERO] * dim
    A_ub = [[-ONE if j == h else ZERO for j in range(m)] + [p[h]] for h in range(m)]
    b_ub = [ZERO] * m
    return [ZERO] * m + [ONE], A_eq, b_eq, A_ub, b_ub


def test_atom_program_rows_are_the_dense_formula():
    """_atom_program's rows are the dense program's nonzeros, entry for entry.

    Taken on every alive atom of 60 search_pool markets; S often does not
    jump on a child, so zero entries are dropped.  Each row holds no zero
    pair and its columns increase.
    """
    dropped = 0
    for sp, filt, S, horizon in search_pool(60):
        for k, _, kids in alive_atoms(filt, horizon):
            p = sp.split(kids)
            s_jumps = S.child_jumps(k, kids)
            c, A_eq, b_eq, A_ub, b_ub = _atom_program(p, s_jumps)
            dense_c, dense_eq, dense_b_eq, dense_ub, dense_b_ub = dense_atom_program(p, s_jumps)
            assert (c, b_eq, b_ub) == (dense_c, dense_b_eq, dense_b_ub)
            for rows, dense_rows in ((A_eq, dense_eq), (A_ub, dense_ub)):
                assert rows == [[(j, a) for j, a in enumerate(row) if a] for row in dense_rows]
                assert all(a != ZERO for row in rows for _, a in row)
                assert all(j < jj for row in rows for (j, _), (jj, _) in zip(row, row[1:]))
            dropped += sum(a == ZERO for row in dense_eq[1:] for a in row[:-1])
    assert dropped > 0


def test_martingale_asset_poses_no_program(monkeypatch):
    """A base martingale has no drift on any atom: no LP, and D is zero.

    A drifting scalar atom poses a program only when two children tie at
    the extreme jump and some child's jump is zero; a drifting atom of
    dimension two always poses one.
    """
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
    # a unique extreme child: the closed form, no program
    sp, filt, _ = three_point_market()
    assert find_structure_connector(sp, filt, Process.from_scalar_paths(
        [[0, 2], [0, -1], [0, 3]])).found
    assert calls == []
    # two children tie at the extreme jump and no jump is zero: the closed form
    assert find_structure_connector(*tied_market()).found
    assert calls == []
    # a tie beside a zero jump: one program
    assert find_structure_connector(*zero_tied_market()).found
    assert len(calls) == 1
    # a drifting atom of dimension two: one program
    S = Process(2, [[(ZERO, ZERO), (Q(2), ONE)], [(ZERO, ZERO), (-ONE, Q(-3))],
                    [(ZERO, ZERO), (ZERO, ONE)]])
    assert find_structure_connector(sp, filt, S).found
    assert len(calls) == 2


TIE_JUMPS = (Q(-2), -ONE, Q(-1, 2), Q(1, 2), ONE, Q(2))
TIE_WEIGHTS = (1, 2, 3, 5)


def tied_extreme(p, s):
    """The drift-opposing extreme jump of a drifting scalar atom when two children attain it."""
    mu = jump_mean(p, [(sh,) for sh in s])[0]
    e = min(s) if mu > ZERO else max(s)
    return e if mu * e < ZERO and list(s).count(e) > 1 else None


def scalar_ties(jump_rows, weight_rows):
    """(p, s_jumps) of each atom whose tied_extreme is not None, p the normalized weights."""
    for s in jump_rows:
        for w in weight_rows:
            p = [Q(x, sum(w)) for x in w]
            if tied_extreme(p, s) is not None:
                yield p, [(sh,) for sh in s]


def tie_grid():
    """Every tie over jumps TIE_JUMPS: weights from TIE_WEIGHTS at m = 3, fixed rows at 4 and 5."""
    for m, weight_rows in ((3, product(TIE_WEIGHTS, repeat=3)),
                           (4, ((1, 2, 3, 5), (5, 3, 2, 1), (2, 2, 2, 2))),
                           (5, ((1, 2, 3, 5, 1),))):
        yield from scalar_ties(product(TIE_JUMPS, repeat=m), list(weight_rows))


def random_ties(count):
    """Ties at m = 3..8 from a fixed seed: random weights, random nonzero jumps, a copied extreme."""
    rng = random.Random("ties")
    while count:
        m = rng.randint(3, 8)
        w = [rng.randint(1, 9) for _ in range(m)]
        s = [Q(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m)]
        e = min(s) if rng.random() < 0.5 else max(s)
        for h in rng.sample(range(m), rng.randint(1, m - 2)):
            s[h] = e
        for tie in scalar_ties([s], [w]):
            count -= 1
            yield tie


def test_a_zero_free_tie_is_blands_vertex_in_closed_form(monkeypatch):
    """On a tie with no zero jump, _atom_weights poses no program and returns the simplex's q.

    Every tie of tie_grid and 400 random_ties up to m = 8: q equals the
    first m values of solve_lp on _atom_program, exactly.  The two phases
    of _atom_weights' argument both occur (the first jump above -1 is
    positive or negative) under both signs of the drift, and the first
    tied child is not always the first child.  The same ties with one
    non-extreme jump set to zero pose one program each.
    """
    import driftlab.viability as viability
    calls = []

    def counting_solve_lp(*args):
        calls.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(viability, "solve_lp", counting_solve_lp)
    census, later_first, zero_ties = Counter(), 0, 0
    for p, s_jumps in [*tie_grid(), *random_ties(400)]:
        s = [sh for (sh,) in s_jumps]
        assert _atom_weights(p, s_jumps) == solve_lp(*_atom_program(p, s_jumps)).x[:len(p)]
        e = tied_extreme(p, s)
        first_above = next(sh for sh in s if sh > -ONE)
        census[e < ZERO, first_above > ZERO] += 1
        later_first += s.index(e) > 0
        s[max(h for h, sh in enumerate(s) if sh != e)] = ZERO
        if tied_extreme(p, s) is not None:
            zeroed = [(sh,) for sh in s]
            before = len(calls)
            assert _atom_weights(p, zeroed) == solve_lp(*_atom_program(p, zeroed)).x[:len(p)]
            assert len(calls) == before + 1
            zero_ties += 1
    assert len(calls) == zero_ties > 0
    assert set(census) == set(product((False, True), repeat=2)) and later_first > 0, census


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


def three_point_market():
    """One tick, three children with p = (1/4, 1/4, 1/2); S drifts on the atom."""
    sp = SampleSpace(("u", "m", "d"), (Q(1, 4), Q(1, 4), Q(1, 2)))
    top = Partition([[0, 1, 2]])
    filt = Filtration(top, ((top, Partition([[0], [1], [2]])),))
    return sp, filt, Process.from_scalar_paths([[0, 2], [0, 1], [0, -1]])


def tied_market():
    """three_point_market's space; S drifts and its two smallest jumps tie, none is zero."""
    sp, filt, _ = three_point_market()
    return sp, filt, Process.from_scalar_paths([[0, -1], [0, -1], [0, 2]])


def zero_tied_market():
    """Four equally likely children; S drifts, its two smallest jumps tie and one jump is zero.

    The tie beside a zero jump is the atom that still poses a program.
    """
    sp = SampleSpace(("a", "b", "c", "d"), (Q(1, 4),) * 4)
    top = Partition([[0, 1, 2, 3]])
    filt = Filtration(top, ((top, Partition([[0], [1], [2], [3]])),))
    return sp, filt, Process.from_scalar_paths([[0, -1], [0, -1], [0, 0], [0, 3]])


def broken_optimum(q_of):
    """_atom_weights, with the optimal weights q replaced by q_of(q, p)."""
    weights = _atom_weights
    return lambda p, s_jumps: q_of(weights(p, s_jumps), p)


def perturbed_path(edit):
    """Process.from_jump_table, with the assembled process passed through edit()."""
    build = Process.from_jump_table
    return staticmethod(lambda n, filt, table, dim=1: edit(build(n, filt, table, dim)))


def rows_of(X):
    return [list(row) for row in X.values]


def shifted(rows, i, k, delta):
    rows[i][k] = tuple(x + delta for x in rows[i][k])
    return rows


@pytest.mark.parametrize("patch, reason", [
    (("_atom_weights", broken_optimum(lambda q, p: [2 * qh for qh in q])), "not-martingale"),
    (("_atom_weights", broken_optimum(lambda q, p: [ZERO, q[0] + q[1]] + q[2:])),
     "jump-at-least-one"),
    (("_atom_weights", broken_optimum(lambda q, p: p)), "identity-failed"),
    (("from_jump_table", perturbed_path(lambda X: Process(1, shifted(rows_of(X), 1, 1, ONE)))),
     "jump-off-table"),
    (("from_jump_table", perturbed_path(
        lambda X: Process(1, [[(ONE,)] + row[1:] for row in rows_of(X)]))), "nonzero-start"),
    (("from_jump_table", perturbed_path(
        lambda X: Process(2, [[x * 2 for x in row] for row in X.values]))), "not-scalar"),
], ids=["sum-q", "q-not-positive", "sum-q-s", "path-value", "start", "dimension"])
def test_search_self_check_catches_injected_faults(monkeypatch, patch, reason):
    """The search's closing checks refuse a broken atom optimum or a D off its table.

    Broken optima keep the floor positive: sum q != 1 breaks the
    martingale row, a zero q_h gives a jump of one, and q = p breaks
    sum q s = 0 where S drifts.  The search itself refuses these.  The
    assembled D is perturbed at one outcome, at its start, or in its
    dimension; D is built on the first read of the connector, so that
    read refuses these.  Each fault is injected on both routes to the
    optimum: the closed form (three_point_market, and tied_market's tie)
    and the simplex (zero_tied_market).
    """
    import driftlab.viability as viability
    markets = (three_point_market(), tied_market(), zero_tied_market())
    for sp, filt, S in markets:
        assert find_structure_connector(sp, filt, S).found
    name, fault = patch
    monkeypatch.setattr(viability if name == "_atom_weights" else Process, name, fault)
    for sp, filt, S in markets:
        with pytest.raises(InternalInvariant) as exc:
            if name == "_atom_weights":
                find_structure_connector(sp, filt, S)
            else:
                find_structure_connector(sp, filt, S).connector
        assert exc.value.detail["reason"] == reason


def search_pool(count):
    """Single-filtration markets drawn like the benchmark's `markets` pool.

    n in 2..12, ticks in 1..4, a random horizon 30% of the time, a viable
    asset 45% of the time, dimension 2 one time in three.
    """
    for j in range(count):
        rng = random.Random(f"lazy:{j}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 12), rng.randint(1, 4), 3)
        horizon = random_stopping_time(rng, sp, filt) if rng.random() < 0.3 else None
        dim = 2 if j % 3 == 2 else 1
        if rng.random() < 0.45:
            S = random_viable_asset(rng, sp, filt, dim=dim)[0]
        else:
            S = random_adapted(rng, sp, filt, dim=dim)
        yield sp, filt, S, horizon


def test_search_decides_without_building_the_connector(monkeypatch):
    """found, tick and atom need no process; D is built once, on its first read.

    With Process.from_jump_table refused, the search still gives, on 240
    markets, the found/tick/atom records that PINNED_SEARCH_OUTCOME_DIGEST
    took when every found search still built its connector, and a search
    that is not found reads None as its connector.  Once the refusal is
    lifted, a found search's first read returns a connector for S and the
    second read the same object.
    """
    def refused(*args, **kwargs):
        raise RuntimeError("connector built")

    pool = list(search_pool(240))
    monkeypatch.setattr(Process, "from_jump_table", staticmethod(refused))
    searches = [find_structure_connector(*market) for market in pool]
    records = [[s.found, s.tick, None if s.atom is None else list(s.atom)] for s in searches]
    digest = hashlib.sha256(dumps(encode_exact(records)).encode("utf-8")).hexdigest()
    assert digest == PINNED_SEARCH_OUTCOME_DIGEST
    assert sum(s.found for s in searches) == 129
    assert all(s.connector is None for s in searches if not s.found)
    with pytest.raises(RuntimeError):
        next(s for s in searches if s.found).connector
    monkeypatch.undo()
    for s, (sp, filt, S, horizon) in zip(searches, pool):
        if s.found:
            D = s.connector
            assert D is s.connector
            assert is_structure_connector(sp, filt, S, D, horizon) is None


def search_record(search):
    """found, tick, atom and the jump table of a search, for comparing two searches."""
    return search.found, search.tick, search.atom, search.jumps


def sweep_pool(count):
    """(space, filt, S, horizon) of the enlarged asset sweep on `count` instances.

    Per instance, as the sweep acceptance test draws its family: the tilted
    component assets and random viable base assets up to 20, then one
    random adapted asset of each dimension on the enlarged filtration,
    each searched on the enlarged filtration up to the horizon.
    """
    for seed in range(count):
        eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=KINDS[seed % 3]))
        rng = random.Random(f"one-child:{seed}")
        family = tilted_component_assets(eb.space, eb.base,
                                         build_representation(eb.space, eb.base))
        while len(family) < 20:
            family.append(random_viable_asset(rng, eb.space, eb.base)[0])
        family += [random_adapted(rng, eb.space, eb.enlarged, dim=dim) for dim in (1, 2)]
        for S in family:
            yield eb.space, eb.enlarged, S, eb.horizon


def test_one_child_atoms_keep_the_reference_search():
    """Skipping an atom with one child changes no search outcome and no jump of D.

    connector_search_reference poses every atom through _atom_weights and
    the row check.  On the asset sweep of 150 enlarged instances and on the
    240 search_pool markets, the search gives the same found/tick/atom
    record and the same jump table.  The sweep blocks on atoms with one
    child as well as on atoms with more, so both branches are compared.
    """
    blocked_on = Counter()
    for market in [*sweep_pool(150), *search_pool(240)]:
        search = find_structure_connector(*market)
        assert search_record(search) == search_record(connector_search_reference(*market))
        if not search.found:
            filt = market[1]
            blocked_on[len(filt.child_map[(search.tick, frozenset(search.atom))]) == 1] += 1
    assert blocked_on[True] > 100 and blocked_on[False] > 100, blocked_on


def moved_on(S, k, b, component):
    """S with one added to one component from tick k on, on b: S jumps on (k, b) alone."""
    rows = [list(row) for row in S.values]
    for i in b:
        for t in range(k, len(rows[i])):
            rows[i][t] = tuple(x + ONE if c == component else x for c, x in enumerate(rows[i][t]))
    return Process(S.dim, rows)


def test_an_asset_moving_on_a_one_child_atom_blocks_there_without_a_program(monkeypatch):
    """A martingale moved on one atom with one child is blocked at that atom, by no program.

    On 40 markets, each atom with one child in turn: a scalar martingale,
    and a pair of martingales in each of its two components, gain one on
    that atom from its tick on.  Only that atom's row fails, so the search
    blocks at its (tick, atom), like the reference, and solve_lp is not
    called; the reference poses one infeasible program for the pair.  The
    unmoved assets are found, with no jump of D on those atoms.
    """
    import driftlab.viability as viability
    calls = []

    def counting_solve_lp(*args):
        calls.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(viability, "solve_lp", counting_solve_lp)
    moved = 0
    for seed in range(40):
        rng = random.Random(f"one-child-move:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(3, 10), rng.randint(2, 4), 3)
        X, Y = random_martingale(rng, sp, filt), random_martingale(rng, sp, filt)
        pair = Process(2, [[x + y for x, y in zip(xs, ys)] for xs, ys in zip(X.values, Y.values)])
        singles = [(k, b) for k, b, kids in alive_atoms(filt) if len(kids) == 1]
        for S in (X, pair):
            search = find_structure_connector(sp, filt, S)
            assert search.found and calls == []
            assert all((k, b) not in search.jumps for k, b in singles)
            for (k, b), component in product(singles, range(S.dim)):
                bumped = moved_on(S, k, b, component)
                search = find_structure_connector(sp, filt, bumped)
                assert (search.found, search.tick, search.atom) == (False, k, tuple(sorted(b)))
                assert calls == []
                reference = connector_search_reference(sp, filt, bumped)
                assert search_record(search) == search_record(reference)
                assert len(calls) == (S.dim == 2)
                assert calls == [] or solve_lp(*calls[0]).status == INFEASIBLE
                calls.clear()
                moved += 1
    assert moved > 50, moved


def path_level_connector_violation(space, filt, D, horizon, S=None):
    """The connector check read off path-level processes in one walk.

    The reference that is_structure_connector and _connector_violation
    must match, record for record: the same reason priority, with the
    rows written out here rather than through _atom_rows_violation.
    """
    if D.dim != 1:
        return {"reason": "not-scalar"}
    if not is_adapted(filt, D):
        return {"reason": "not-adapted"}
    for i in range(space.n):
        if D.at(i, 0)[0] != ZERO:
            return {"reason": "nonzero-start", "outcome": i}
    big_jump = identity = None
    for k, b, kids in alive_atoms(filt, horizon):
        p = space.split(kids)
        d_jumps = D.child_jumps(k, kids)
        if jump_mean(p, d_jumps)[0] != ZERO:
            return {"reason": "not-martingale", "tick": k, "atom": sorted(b)}
        for kid, (dj,) in zip(kids, d_jumps):
            if dj >= ONE and (big_jump is None or (min(kid), k) < big_jump):
                big_jump = (min(kid), k)
        if S is None or big_jump is not None or identity is not None:
            continue
        q = [ph * (ONE - dj) for ph, (dj,) in zip(p, d_jumps)]
        failed = [c for c, mean in enumerate(jump_mean(q, S.child_jumps(k, kids))) if mean != ZERO]
        if failed:
            identity = {"reason": "identity-failed", "tick": k,
                        "atom": sorted(b), "component": failed[0]}
    if big_jump is not None:
        return {"reason": "jump-at-least-one", "outcome": big_jump[0], "tick": big_jump[1]}
    return identity


CONNECTOR_REASONS = {None, "not-scalar", "not-adapted", "nonzero-start", "not-martingale",
                     "jump-at-least-one", "identity-failed"}
DELTAS = (Q(-1, 2), Q(1, 3), ONE, Q(2))
SCALES = (ZERO, Q(1, 2), Q(2), Q(5), Q(40))


def perturbed_connectors(seed):
    """(space, filt, S, horizon, Ds): a found connector, then its perturbations.

    Perturbations: one child's jump moved (its outcomes shifted from that
    tick on), every jump on one alive atom scaled, the start moved (on one
    outcome's whole path, and on all paths), the dimension doubled, and
    one path value moved.
    """
    rng = random.Random(f"census:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 3), 3)
    horizon = None if rng.random() < 0.5 else random_stopping_time(rng, sp, filt)
    S, _, _ = random_viable_asset(rng, sp, filt, dim=rng.choice((1, 1, 2)))
    D = find_structure_connector(sp, filt, S, horizon).connector
    n, K = sp.n, filt.K

    def moved(outcomes, k, delta):
        rows = rows_of(D)
        for i, d in zip(outcomes, delta):
            for t in range(k, K + 1):
                shifted(rows, i, t, d)
        return Process(1, rows)

    k = rng.randint(1, K)
    child = rng.choice(filt.at(k).blocks)
    Ds = [D, moved(child, k, [rng.choice(DELTAS)] * len(child))]
    k, _, kids = rng.choice(list(alive_atoms(filt, horizon)))
    scale = rng.choice(SCALES)
    outcomes = [i for kid in kids for i in kid]
    Ds.append(moved(outcomes, k, [(scale - ONE) * D.jump(i, k)[0] for i in outcomes]))
    Ds.append(moved([rng.randrange(n)], 0, [rng.choice(DELTAS)]))
    Ds.append(moved(range(n), 0, [rng.choice(DELTAS)] * n))
    Ds.append(Process(2, [[x * 2 for x in row] for row in D.values]))
    Ds.append(Process(1, shifted(rows_of(D), rng.randrange(n), rng.randint(0, K),
                                 rng.choice(DELTAS))))
    return sp, filt, S, horizon, Ds


def connector_records(seed):
    """(record, reference record) of each perturbed connector, with and without S."""
    sp, filt, S, horizon, Ds = perturbed_connectors(seed)
    T = StoppingTime.constant(sp.n, filt.K) if horizon is None else horizon
    for D in Ds:
        yield (is_structure_connector(sp, filt, S, D, horizon),
               path_level_connector_violation(sp, filt, D, T, S))
        yield _connector_violation(sp, filt, D, T), path_level_connector_violation(sp, filt, D, T)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_connector_check_matches_the_path_level_reference(seed):
    for got, expected in connector_records(seed):
        assert got == expected


def test_connector_reason_census_reaches_every_reason():
    """The reference comparison on 250 fixed seeds (3500 checks) hits every reason."""
    census = Counter()
    for seed in range(250):
        for got, expected in connector_records(seed):
            assert got == expected
            census[None if got is None else got["reason"]] += 1
    assert set(census) == CONNECTOR_REASONS, census


def test_a_horizon_of_the_wrong_length_is_refused_at_every_entry():
    """A horizon with one value too few or too many raises NotARandomTime at every entry.

    On a gen_single_filtration market with a viable asset S (with its
    known connector D and deflator Z), and on gen_random_instance(seed=3)
    with its horizon replaced: for each length, is_stopping_time is False,
    validate_enlargement reports the length alone, and every entry that
    takes the horizon, directly or as the basis's, refuses it.  None of
    them raises IndexError or KeyError, and none walks it.
    """
    rng = random.Random("horizon-length")
    sp, filt = gen_single_filtration(rng, 6, 2, 3)
    S, D, Z = random_viable_asset(rng, sp, filt)
    eb = gen_random_instance(GeneratorConfig(seed=3))
    rep = build_representation(eb.space, eb.base)
    assert validate_enlargement(eb).ok
    for delta in (-1, 1):
        T = StoppingTime.constant(sp.n + delta, filt.K)
        assert not is_stopping_time(filt, T)
        bad = dataclasses.replace(
            eb, horizon=StoppingTime.constant(eb.space.n + delta, eb.enlarged.K))
        assert validate_enlargement(bad).errors == (
            "NOT_A_RANDOM_TIME: horizon must assign a time to every outcome",)
        entries = [
            lambda: find_structure_connector(sp, filt, S, T),
            lambda: is_structure_connector(sp, filt, S, D, T),
            lambda: deflator_from_connector(sp, filt, D, T),
            lambda: lp_deflator_oracle(sp, filt, S, T),
            lambda: check_deflator(sp, filt, S, Z, T),
            lambda: verify_no_deflator(sp, filt, S, T, {"multipliers_eq": [],
                                                        "multipliers_ub": []}),
            lambda: is_martingale(sp, filt, D, T),
            lambda: martingale_violation(sp, filt, D, T),
            lambda: arbitrage_certificate(sp, filt, S, T, 1, filt.pre(1).blocks[0]),
            lambda: stop(S, T),
            lambda: full_viability_verdict(bad, rep),
            lambda: check_condition_support(bad),
            lambda: solve_factors(bad, rep),
            lambda: solve_accessible_K(bad, rep),
            lambda: drift_operator(bad, rep.W.component(0)),
        ]
        for entry in entries:
            with pytest.raises(NotARandomTime, match="must assign a time to every outcome"):
                entry()


# A process reshaped by one outcome row or one tick, either way.
RESHAPES = {
    "extra row": lambda values: values + values[-1:],
    "extra tick": lambda values: tuple(row + row[-1:] for row in values),
    "row short": lambda values: values[:-1],
    "tick short": lambda values: tuple(row[:-1] for row in values),
}


@pytest.mark.parametrize("shape", RESHAPES)
def test_a_process_of_the_wrong_shape_is_refused_at_every_entry(shape):
    """A process with one outcome row or one tick too many or too few raises DimensionMismatch.

    On a gen_single_filtration market with a viable asset S (with its
    known connector D and deflator Z), and on gen_random_instance(seed=1),
    whose support condition holds, with a base viable asset and a base
    martingale: every entry that takes a process on the space and
    filtration refuses the reshaped one, and names both shapes.  None of
    them accepts it, raises IndexError, or blames the horizon.  A
    reshaped Z is not a deflator: check_deflator answers False.
    """
    reshape = RESHAPES[shape]
    rng = random.Random("process-shape")
    sp, filt = gen_single_filtration(rng, 6, 2, 3)
    S, D, Z = random_viable_asset(rng, sp, filt)
    eb = gen_random_instance(GeneratorConfig(seed=1))
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    ES, ED, _ = random_viable_asset(rng, eb.space, eb.base)
    K, _ = enlarged_connector(eb, rep, factors, ED)
    X = random_martingale(rng, eb.space, eb.base)
    assert check_condition_support(eb).ok

    def bad(P):
        return Process(P.dim, reshape(P.values))

    entries = [
        lambda: find_structure_connector(sp, filt, bad(S)),
        lambda: is_structure_connector(sp, filt, bad(S), D),
        lambda: is_structure_connector(sp, filt, S, bad(D)),
        lambda: deflator_from_connector(sp, filt, bad(D)),
        lambda: lp_deflator_oracle(sp, filt, bad(S)),
        lambda: check_deflator(sp, filt, bad(S), Z),
        lambda: verify_no_deflator(sp, filt, bad(S), None, {"multipliers_eq": [],
                                                            "multipliers_ub": []}),
        lambda: arbitrage_certificate(sp, filt, bad(S), None, 1, filt.pre(1).blocks[0]),
        lambda: is_martingale(sp, filt, bad(D)),
        lambda: martingale_violation(sp, filt, bad(D)),
        lambda: compensator(sp, filt, bad(S)),
        lambda: drift_operator(eb, bad(X)),
        lambda: tilde(eb, bad(X)),
        lambda: factorization_check(eb, factors, bad(X)),
        lambda: compensator_transfer_check(eb, factors, bad(X)),
        lambda: solve_accessible_K(eb, rep, bad(ED)),
        lambda: enlarged_connector(eb, rep, factors, bad(ED)),
        lambda: g_connector(eb, rep, factors, bad(ES), ED),
        lambda: g_connector(eb, rep, factors, ES, bad(ED)),
        lambda: jump_identity_check(eb, rep, factors, bad(K), ED),
        lambda: jump_identity_check(eb, rep, factors, K, bad(ED)),
    ]
    for entry in entries:
        with pytest.raises(DimensionMismatch, match="the basis has"):
            entry()
    assert not check_deflator(sp, filt, S, bad(Z))
