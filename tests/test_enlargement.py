import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.basis import (Filtration, Partition, Process, SampleSpace, StoppingTime,
                            alive_atoms, cond_expect)
from driftlab.calculus import is_adapted, is_martingale, is_predictable
from driftlab.enlargement import (
    DriftFactors,
    EnlargedBasis,
    _multinomial_solve,
    check_condition_support,
    check_positivity,
    compensator_transfer_check,
    drift_operator,
    factorization_check,
    solve_factors,
    validate_enlargement,
)
from driftlab.errors import (ConnectorInvalid, EngineError, NotAdapted, NotAMartingale,
                             NotAStoppingTime, Unsolvable)
from driftlab.linalg import min_norm_solve, vec_dot
from driftlab.models import (
    GeneratorConfig,
    extract_accessible_event_data,
    gen_random_instance,
    random_adapted,
    random_martingale,
    random_viable_asset,
)
from driftlab.rational import ONE, ZERO, Q
from driftlab.representation import build_representation, represent
from driftlab.viability import (
    enlarged_connector,
    g_connector,
    is_structure_connector,
    jump_identity_check,
    solve_accessible_K,
)
from reference import worked_four_point, worked_six_point

KINDS = ("random", "initial", "progressive")


def instance(seed, force=False):
    kind = KINDS[seed % 3]
    return gen_random_instance(GeneratorConfig(
        seed=seed, enlargement_kind=kind, force_condition_failure=force))


@given(st.integers(min_value=0, max_value=300))
def test_generated_instances_validate(seed):
    eb = instance(seed)
    assert validate_enlargement(eb).ok


def test_validate_enlargement_lists_each_error_once():
    """The space is checked once; each filtration's own errors follow it."""
    from dataclasses import replace

    from driftlab.basis import Filtration, Partition, SampleSpace
    eb = instance(0)
    n = eb.space.n
    bad_space = SampleSpace(eb.space.outcomes, (Q(1, 2),) * n)
    assert validate_enlargement(replace(eb, space=bad_space)).errors == (
        "BAD_PROBABILITY: total mass != 1",)
    holed = Partition([[i] for i in range(1, n)])  # misses outcome 0
    ticks = list(eb.enlarged.ticks)
    ticks[0] = (ticks[0][0], holed)
    broken = replace(eb, space=bad_space,
                     enlarged=Filtration(eb.enlarged.initial, ticks))
    assert validate_enlargement(broken).errors == (
        "BAD_PROBABILITY: total mass != 1",
        "REFINEMENT_BROKEN(at(1)): not a partition of the outcome set")


@given(st.integers(min_value=0, max_value=200))
def test_drift_makes_compensated_process_a_martingale(seed):
    eb = instance(seed)
    rng = random.Random(f"driftm:{seed}")
    X = random_martingale(rng, eb.space, eb.base)
    drift = drift_operator(eb, X)
    assert is_predictable(eb.enlarged, drift)
    assert is_martingale(eb.space, eb.enlarged, X - drift, horizon=eb.horizon)


@given(st.integers(min_value=0, max_value=200))
def test_drift_is_linear(seed):
    eb = instance(seed)
    rng = random.Random(f"lin:{seed}")
    X = random_martingale(rng, eb.space, eb.base)
    Y = random_martingale(rng, eb.space, eb.base)
    a, b = Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))
    lhs = drift_operator(eb, X.scale(a) + Y.scale(b))
    rhs = drift_operator(eb, X).scale(a) + drift_operator(eb, Y).scale(b)
    assert lhs == rhs


def test_drift_freezes_after_horizon():
    eb = instance(5)
    rng = random.Random("freeze")
    X = random_martingale(rng, eb.space, eb.base)
    drift = drift_operator(eb, X)
    for i in range(eb.space.n):
        for k in range(1, eb.base.K + 1):
            if not eb.alive(i, k):
                assert drift.jump(i, k) == (ZERO,)


def test_drift_rejects_non_martingale():
    eb = instance(7)
    ramp = Process.from_scalar_paths(
        [list(range(eb.base.K + 1))] * eb.space.n)
    with pytest.raises(NotAMartingale):
        drift_operator(eb, ramp)
    factors = solve_factors(eb, build_representation(eb.space, eb.base))
    with pytest.raises(NotAMartingale):
        factorization_check(eb, factors, ramp)


def test_drift_rejects_non_adapted():
    """A path that reveals the outcome at tick 0 is not base-adapted."""
    eb = worked_six_point()["eb"]
    reveal = Process.from_scalar_paths(
        [[i] * (eb.base.K + 1) for i in range(eb.space.n)])
    with pytest.raises(NotAdapted):
        drift_operator(eb, reveal)


@given(st.integers(min_value=0, max_value=200), st.booleans())
def test_factorization_covers_driver_and_random_martingales(seed, force):
    eb = instance(seed, force)
    rng = random.Random(f"fac:{seed}")
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    assert is_predictable(eb.enlarged, factors.phi)
    assert factors.Wt == rep.W - drift_operator(eb, rep.W)
    for comp in factors.N.components():
        assert factorization_check(eb, factors, comp) is None
    X = random_martingale(rng, eb.space, eb.base)
    assert factorization_check(eb, factors, X) is None


@given(st.integers(min_value=0, max_value=200))
def test_compensator_transfer(seed):
    eb = instance(seed)
    rng = random.Random(f"ct:{seed}")
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    A = random_adapted(rng, eb.space, eb.base, dim=2)
    assert compensator_transfer_check(eb, factors, A) is None


def test_support_condition_goldens():
    six = worked_six_point()
    rep = check_condition_support(six["eb"])
    assert rep.ok

    four = worked_four_point()
    rep = check_condition_support(four["eb"])
    assert not rep.ok
    assert rep.tick == 1
    assert rep.atom == frozenset({3})
    assert rep.child == frozenset({0, 1})


@given(st.integers(min_value=0, max_value=150))
def test_forced_failure_breaks_support(seed):
    eb = instance(seed, force=True)
    assert not check_condition_support(eb).ok


def reference_support(eb):
    """(ok, tick, atom, child): the first alive enlarged atom missing a child of its base atom.

    Atoms by tick, then block order; children in at(k) block order.
    """
    for k in range(1, eb.base.K + 1):
        for c in eb.enlarged.pre(k).blocks:
            if not eb.horizon.alive_block(c, k):
                continue
            b = eb.base.pre(k).block_of(min(c))
            for kid in eb.base.at(k).blocks:
                if kid <= b and eb.space.mass(kid) > ZERO and not (kid & c):
                    return False, k, c, kid
    return True, None, None, None


@pytest.mark.parametrize("force", [False, True])
def test_support_report_is_cached_and_matches_a_per_child_reference(force):
    """check_condition_support's report, cached on the basis, is the per-child reference's.

    A second call returns the same report object.
    """
    failed = 0
    for seed in range(400):
        eb = instance(seed, force)
        report = check_condition_support(eb)
        assert (report.ok, report.tick, report.atom, report.child) == reference_support(eb)
        assert check_condition_support(eb) is report
        failed += not report.ok
    assert (failed == 400) if force else (0 < failed < 400)


def test_factors_and_event_data_read_one_cached_split(monkeypatch):
    """solve_factors fills the space's split cache from the atom table; the event data reads it.

    Once the factors are solved, SampleSpace.mass refuses every call:
    extracting the accessible event data of every alive enlarged atom
    recomputes no split, its p and pbar are the cached splits of the
    table's bkids and inside, and the table and the cache keep the very
    same entries.
    """
    def refuse(space, event):
        raise AssertionError("a split was recomputed")

    for seed in range(40):
        eb = instance(seed)
        rep = build_representation(eb.space, eb.base)
        factors = solve_factors(eb, rep)
        table, splits = eb._atoms, dict(eb.space._splits)
        assert list(table) == [(k, c) for k, c, _ in alive_atoms(eb.enlarged, eb.horizon)]
        with monkeypatch.context() as patch:
            patch.setattr(SampleSpace, "mass", refuse)
            for (k, c), (_, _, bkids, inside) in table.items():
                data = extract_accessible_event_data(eb, rep, factors, None, k, c)
                assert data.p is splits[bkids] and data.pbar is splits[inside]
        assert eb._atoms is table
        assert eb.space._splits.keys() == splits.keys()
        assert all(eb.space._splits[key] is split for key, split in splits.items())


def brute_force_atoms(eb):
    """(k, c) -> (ekids, b, bkids, inside) by set containment, with no block_of or child_map.

    Atoms by tick, then block order, kept only where the horizon is alive
    on every outcome; children in at(k) block order.
    """
    table = {}
    for k in range(1, eb.enlarged.K + 1):
        for c in eb.enlarged.pre(k).blocks:
            if not all(eb.horizon.geq(i, k) for i in c):
                continue
            b = next(x for x in eb.base.pre(k).blocks if c <= x)
            bkids = tuple(kid for kid in eb.base.at(k).blocks if kid <= b)
            ekids = tuple(e for e in eb.enlarged.at(k).blocks if e <= c)
            table[(k, c)] = (ekids, b, bkids, tuple(kid & c for kid in bkids))
    return table


@pytest.mark.parametrize("force", [False, True])
def test_atom_table_matches_set_containment(force):
    """EnlargedBasis._atoms is the brute-force table, entry for entry and in order.

    On gen_random_instance seeds 0-199, every kind, plain and forced.
    Every forced table has an empty intersection, and so do some plain ones.
    """
    missed = 0
    for seed in range(200):
        for kind in KINDS:
            eb = gen_random_instance(GeneratorConfig(
                seed=seed, enlargement_kind=kind, force_condition_failure=force))
            assert list(eb._atoms.items()) == list(brute_force_atoms(eb).items()), (seed, kind)
            missed += not all(part for *_, inside in eb._atoms.values() for part in inside)
    assert (missed == 600) if force else (0 < missed < 600)


@pytest.mark.parametrize("force", [False, True])
def test_atom_table_refuses_a_straddling_horizon_as_alive_atoms_does(force):
    """A horizon that straddles an enlarged atom raises from _atoms with alive_atoms' detail.

    Each alive atom of two or more outcomes is made to straddle by stopping
    its first outcome one tick early.  Nothing is cached, so a second read
    raises the same again, and so does check_condition_support, even where
    an earlier atom fails support.
    """
    straddled = after_failure = 0
    for seed in range(30):
        eb = instance(seed, force)
        order = list(eb._atoms)
        support = check_condition_support(eb)
        first_failure = len(order) if support.ok else order.index((support.tick, support.atom))
        for j, (k, c) in enumerate(order):
            if len(c) < 2:
                continue
            after_failure += j > first_failure
            values = list(eb.horizon.values)
            values[min(c)] = k - 1
            cut = dataclasses.replace(eb, horizon=StoppingTime(tuple(values)))
            with pytest.raises(NotAStoppingTime) as walk:
                list(alive_atoms(cut.enlarged, cut.horizon))
            for read in (lambda: cut._atoms, lambda: cut._atoms,
                         lambda: check_condition_support(cut)):
                with pytest.raises(NotAStoppingTime) as table:
                    read()
                assert (str(table.value), table.value.detail) == \
                    (str(walk.value), walk.value.detail)
            assert "_atoms" not in vars(cut) and "_support" not in vars(cut)
            straddled += 1
    assert straddled >= 30, straddled
    assert after_failure > 0, after_failure


@given(st.integers(min_value=0, max_value=150))
def test_positivity_on_clean_instances(seed):
    eb = instance(seed)
    if not check_condition_support(eb).ok:
        return
    rep = build_representation(eb.space, eb.base)
    factors = solve_factors(eb, rep)
    assert check_positivity(eb, factors) is None


def _cov(weights, rows, centre):
    """Sum over rows of weight * (row - centre) (row - centre)^T."""
    width = len(centre)
    V = [[ZERO] * width for _ in range(width)]
    for w, row in zip(weights, rows):
        d = [a - c for a, c in zip(row, centre)]
        for a in range(width):
            for b in range(width):
                V[a][b] += w * d[a] * d[b]
    return V


@pytest.mark.parametrize("force", [False, True])
def test_closed_forms_match_general_min_norm_solves(force):
    """phi and K are the minimum-norm solutions of their covariance systems.

    V, Vt and V x are built here from W's jump rows and the masses of the
    children, then solved by the general `min_norm_solve`: phi solves
    V phi = gamma on every alive enlarged atom, and on support-clean
    instances K solves Vt K = V (phi + H_D), for D = 0 and a random base
    martingale, and K . Wt jumps by 1 - q_h / pbar_h on every child of the
    atom, q_h = p_h (1 - jump_h(D)) on the base child h holding it.
    """
    transfers = 0
    for seed in range(40):
        eb = instance(seed, force)
        rep = build_representation(eb.space, eb.base)
        factors = solve_factors(eb, rep)
        zero = (ZERO,) * rep.width
        Ds = []
        if check_condition_support(eb).ok:
            D = random_martingale(random.Random(f"xcheck:{seed}"), eb.space, eb.base)
            Ds = [(solve_accessible_K(eb, rep), None),
                  (solve_accessible_K(eb, rep, D), represent(rep, D))]
            transfers += 1
        for k in range(1, eb.base.K + 1):
            for c in eb.enlarged.pre(k).blocks:
                if not eb.horizon.alive_block(c, k):
                    continue
                i = min(c)
                b = eb.base.pre(k).block_of(i)
                kids = eb.base.child_map[(k, b)]
                rows = [rep.W.jump(min(kid), k) for kid in kids]
                p = [eb.space.mass(kid) / eb.space.mass(b) for kid in kids]
                pbar = [eb.space.mass(kid & c) / eb.space.mass(c) for kid in kids]
                gamma = [sum((pb * row[h] for pb, row in zip(pbar, rows)), ZERO)
                         for h in range(rep.width)]
                V = _cov(p, rows, zero)
                phi = factors.phi.at(i, k)
                assert list(phi) == min_norm_solve(V, gamma)
                Vt = _cov(pbar, rows, gamma)
                for K, HD in Ds:
                    x = phi if HD is None else [a + h for a, h in zip(phi, HD.at(i, k))]
                    assert list(K.at(i, k)) == min_norm_solve(Vt, [vec_dot(r, x) for r in V])
                    for e in eb.enlarged.child_map[(k, c)]:
                        h = next(h for h, kid in enumerate(kids) if e <= kid)
                        d = ZERO if HD is None else D.jump(min(e), k)[0]
                        assert vec_dot(K.at(i, k), factors.Wt.jump(min(e), k)) == \
                            ONE - p[h] * (ONE - d) / pbar[h]
    assert (transfers == 0) == force


probability_rows = (st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5)
                    .filter(any).map(lambda w: [Q(a, sum(w)) for a in w]))


@given(probability_rows, st.data())
def test_multinomial_solve_is_the_min_norm_inverse(p, data):
    """Exact on the range of diag p - p p^T, and rejects anything outside it.

    Zero entries of p stand for padding slots.  An r = M t round-trips to
    the minimum-norm solution; an r with a nonzero sum, or with a nonzero
    entry on a zero slot, raises Unsolvable.
    """
    width = len(p)
    M = [[(p[a] if a == b else ZERO) - p[a] * p[b] for b in range(width)]
         for a in range(width)]
    t = data.draw(st.lists(st.integers(min_value=-5, max_value=5).map(Q),
                           min_size=width, max_size=width), label="t")
    r = [vec_dot(row, t) for row in M]
    x = _multinomial_solve(p, r, "test")
    assert [vec_dot(row, x) for row in M] == r
    assert list(x) == min_norm_solve(M, r)

    live = [h for h in range(width) if p[h]]
    bump = data.draw(st.sampled_from(live), label="bump")
    shifted = list(r)
    shifted[bump] += Q(1, 3)
    with pytest.raises(Unsolvable):
        _multinomial_solve(p, shifted, "test")
    dead = [h for h in range(width) if not p[h]]
    if dead:
        stray = list(r)
        stray[data.draw(st.sampled_from(dead), label="dead")] += ONE
        stray[bump] -= ONE
        with pytest.raises(Unsolvable):
            _multinomial_solve(p, stray, "test")


# Per-outcome references for the two transfer checks: every conditional
# mean a per-component cond_expect over all outcomes, compared outcome by
# outcome at every alive (outcome, tick).

def reference_compensator_transfer_check(eb, factors, A):
    if not is_adapted(eb.base, A):
        raise NotAdapted()
    n, K = eb.space.n, eb.base.K
    for k in range(1, K + 1):
        g_part = eb.enlarged.pre(k)
        f_part = eb.base.pre(k)
        for c in range(A.dim):
            lhs = cond_expect(eb.space, g_part, [A.jump(i, k)[c] for i in range(n)])
            base = cond_expect(eb.space, f_part, [A.jump(i, k)[c] for i in range(n)])
            cols = [cond_expect(eb.space, f_part,
                                [factors.N.jump(i, k)[h] * A.jump(i, k)[c] for i in range(n)])
                    for h in range(factors.N.dim)]
            for i in range(n):
                if not eb.alive(i, k):
                    continue
                rhs = base[i] + vec_dot(factors.phi.at(i, k),
                                        [cols[h][i] for h in range(factors.N.dim)])
                if lhs[i] != rhs:
                    return (i, k, c)
    return None


def reference_g_connector(eb, rep, factors, S, D):
    _, Y = enlarged_connector(eb, rep, factors, D)
    space, base, enlarged = eb.space, eb.base, eb.enlarged
    n = space.n
    for k in range(1, base.K + 1):
        g_part = enlarged.pre(k)
        f_part = base.pre(k)
        y_jumps = [Y.jump(i, k)[0] for i in range(n)]
        d_jumps = [D.jump(i, k)[0] for i in range(n)]
        for c in range(S.dim):
            s_jumps = [S.jump(i, k)[c] for i in range(n)]
            s_mean_g = cond_expect(space, g_part, s_jumps)
            s_mean_f = cond_expect(space, f_part, s_jumps)
            lhs = cond_expect(space, g_part,
                              [y_jumps[i] * (s_jumps[i] - s_mean_g[i]) for i in range(n)])
            base_side = cond_expect(space, f_part,
                                    [d_jumps[i] * (s_jumps[i] - s_mean_f[i]) for i in range(n)])
            mult_side = [cond_expect(space, f_part,
                                     [factors.N.jump(i, k)[h] * (s_jumps[i] - s_mean_f[i])
                                      for i in range(n)])
                         for h in range(factors.N.dim)]
            for i in range(n):
                if not eb.alive(i, k):
                    continue
                rhs = base_side[i] + vec_dot(factors.phi.at(i, k),
                                             [mult_side[h][i] for h in range(factors.N.dim)])
                if lhs[i] != rhs:
                    raise ConnectorInvalid("transfer identity failed",
                                           outcome=i, tick=k, component=c)
    bad = is_structure_connector(space, enlarged, S, Y, eb.horizon)
    if bad is not None:
        raise ConnectorInvalid("transferred process is not a connector", **bad)
    return Y


def predictable_drift(rng, n, filt, width):
    """A process null at 0 whose jump is one small row per left-limit atom."""
    table = {}
    for k, _, kids in alive_atoms(filt):
        row = tuple(Q(rng.randint(-2, 2), 8) for _ in range(width))
        table.update(((k, kid), row) for kid in kids)
    return Process.from_jump_table(n, filt, table, width)


def perturbed(rng, eb, factors):
    """The factors with phi bumped on some enlarged left-limit atoms, scaled, or kept.

    Either way phi stays enlarged-predictable.  The connector transfer
    holds for any such phi, since the integrand K is solved from it, so Wt
    is scaled or given a drift on some draws, and N given a drift: only a
    wrong integrator makes that transfer fail, and only a drift makes its
    centring matter.
    """
    n, enlarged, width = eb.space.n, eb.enlarged, factors.N.dim
    roll = rng.random()
    if roll < 0.4:
        table = {}
        for k, c, _ in alive_atoms(enlarged):
            h = rng.randrange(width) if rng.random() < 0.5 else None
            bump = Q(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
            table[(k, c)] = tuple(x + bump if g == h else x
                                  for g, x in enumerate(factors.phi.at(min(c), k)))
        phi = Process.from_atom_table(n, enlarged, table, width)
    elif roll < 0.7:
        phi = factors.phi.scale(Q(rng.choice((-1, 0, 2, 3)), rng.randint(1, 2)))
    else:
        phi = factors.phi
    roll = rng.random()
    if roll < 0.2:
        Wt = factors.Wt.scale(Q(rng.choice((-1, 1, 3)), 2))
    elif roll < 0.4:
        Wt = factors.Wt + predictable_drift(rng, n, enlarged, width)
    else:
        Wt = factors.Wt
    N = factors.N + predictable_drift(rng, n, eb.base, width) if rng.random() < 0.2 else factors.N
    return dataclasses.replace(factors, N=N, phi=phi, Wt=Wt)


def sparse_adapted(rng, eb, dim):
    """A base-adapted process with jumps in {-1, 0, 1}, often zero on a whole base atom."""
    table = {}
    for k, _, kids in alive_atoms(eb.base):
        live = [rng.random() < 0.5 for _ in range(dim)]
        for kid in kids:
            table[(k, kid)] = tuple(Q(rng.choice((-1, 0, 0, 1))) if on else ZERO
                                    for on in live)
    return Process.from_jump_table(eb.space.n, eb.base, table, dim)


def outcome_of(fn, *args):
    """fn's result, or the type, message and detail of the engine error it raised."""
    try:
        return fn(*args)
    except EngineError as exc:
        return type(exc), str(exc), exc.detail


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=399), st.booleans())
def test_transfer_checks_match_the_per_outcome_reference(seed, force):
    eb = instance(seed, force)
    rng = random.Random(f"transfer:{seed}:{force}")
    rep = build_representation(eb.space, eb.base)
    factors = perturbed(rng, eb, solve_factors(eb, rep))
    A = sparse_adapted(rng, eb, rng.choice((1, 2, 3)))
    assert outcome_of(compensator_transfer_check, eb, factors, A) == \
        outcome_of(reference_compensator_transfer_check, eb, factors, A)
    S, D, _ = random_viable_asset(rng, eb.space, eb.base, dim=rng.choice((1, 2)))
    assert outcome_of(g_connector, eb, rep, factors, S, D) == \
        outcome_of(reference_g_connector, eb, rep, factors, S, D)


def test_transfer_mismatch_is_ordered_by_tick_then_component_then_outcome():
    """The first mismatch of a tick is its lowest component, then its lowest outcome.

    One tick, two base left-limit atoms, no enlargement.  phi is bumped on
    both atoms; A jumps only in component 1 on {0, 1} and only in
    component 0 on {2, 3}, so outcome 0 fails in component 1 and outcome 2
    in component 0.
    """
    space = SampleSpace(("a", "b", "c", "d"), [Q(1, 4)] * 4)
    base = Filtration(Partition([range(4)]),
                      ((Partition([{0, 1}, {2, 3}]), Partition([[i] for i in range(4)])),))
    eb = EnlargedBasis(space=space, base=base, enlarged=base, horizon=StoppingTime.constant(4, 1))
    assert validate_enlargement(eb).ok
    factors = solve_factors(eb, build_representation(space, base))
    bumped = {(1, frozenset(b)): (ONE, ZERO) for b in ({0, 1}, {2, 3})}
    factors = dataclasses.replace(factors, phi=Process.from_atom_table(4, base, bumped, 2))
    jumps = {(1, frozenset({0})): (ZERO, ONE), (1, frozenset({1})): (ZERO, -ONE),
             (1, frozenset({2})): (ONE, ZERO), (1, frozenset({3})): (-ONE, ZERO)}
    A = Process.from_jump_table(4, base, jumps, 2)
    assert compensator_transfer_check(eb, factors, A) == (2, 1, 0)
    assert reference_compensator_transfer_check(eb, factors, A) == (2, 1, 0)


def scaled_on_atoms(rng, eb, P):
    """The enlarged-predictable P, scaled by a random factor on one or two alive pre(k)-atoms.

    The atoms are drawn among those where P is not zero, when there are any.
    """
    table = {(k, c): P.at(min(c), k)
             for k in range(1, eb.enlarged.K + 1) for c in eb.enlarged.pre(k).blocks}
    alive = [(k, c) for k, c, _ in alive_atoms(eb.enlarged, eb.horizon)]
    alive = [a for a in alive if any(table[a])] or alive
    for k, c in rng.sample(alive, min(len(alive), rng.randint(1, 2))):
        s = Q(rng.choice((-8, -3, -1, 0, 2, 5, 9)), rng.randint(1, 2))
        table[(k, c)] = tuple(s * x for x in table[(k, c)])
    return Process.from_atom_table(eb.space.n, eb.enlarged, table, P.dim)


def reference_check_positivity(eb, factors):
    """First (outcome, tick <= horizon), outcome-major, with 1 + phi.jump(N) <= 0."""
    for i in range(eb.space.n):
        for k in range(1, eb.base.K + 1):
            if eb.horizon.geq(i, k) and \
                    ONE + vec_dot(factors.phi.at(i, k), factors.N.jump(i, k)) <= ZERO:
                return (i, k)
    return None


def reference_jump_identity_check(eb, factors, K, D):
    """First (outcome, tick <= horizon), outcome-major, where
    jump(K . Wt) (1 + phi.jump(N)) != jump(D) + phi.jump(N)."""
    for i in range(eb.space.n):
        for k in range(1, eb.base.K + 1):
            if not eb.horizon.geq(i, k):
                continue
            tilt = vec_dot(factors.phi.at(i, k), factors.N.jump(i, k))
            d = D.jump(i, k)[0] if D is not None else ZERO
            if vec_dot(K.at(i, k), factors.Wt.jump(i, k)) * (ONE + tilt) != d + tilt:
                return (i, k)
    return None


@pytest.mark.parametrize("force", [False, True])
def test_enlarged_checks_fail_where_the_per_outcome_reference_does(force):
    """phi or K scaled on random enlarged atoms: each check returns the reference's record.

    Positivity is checked on every instance, the jump identity on the
    support-clean ones (where K exists), against factors with a scaled phi
    and against a scaled K.  Both checks must be driven to fail, and to
    pass, somewhere, so the pinned record order is exercised.
    """
    positivity = identity = clean = 0
    for seed in range(60):
        eb = instance(seed, force)
        rng = random.Random(f"scaled:{seed}:{force}")
        rep = build_representation(eb.space, eb.base)
        factors = solve_factors(eb, rep)
        tilted = DriftFactors(N=factors.N, phi=scaled_on_atoms(rng, eb, factors.phi),
                              Wt=factors.Wt)
        bad = check_positivity(eb, tilted)
        assert bad == reference_check_positivity(eb, tilted)
        positivity += bad is not None
        if not check_condition_support(eb).ok:
            continue
        clean += 1
        D = random_martingale(rng, eb.space, eb.base) if rng.random() < 0.5 else None
        K = solve_accessible_K(eb, rep, D)
        for fac, K_ in ((tilted, K), (factors, scaled_on_atoms(rng, eb, K))):
            bad = jump_identity_check(eb, rep, fac, K_, D)
            assert bad == reference_jump_identity_check(eb, fac, K_, D)
            identity += bad is not None
    assert 0 < positivity < 60
    assert (clean == 0) == force
    if not force:
        assert 0 < identity < 2 * clean
