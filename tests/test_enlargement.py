import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.calculus import is_martingale, is_predictable
from driftlab.enlargement import (
    _multinomial_solve,
    check_condition_support,
    check_positivity,
    compensator_transfer_check,
    drift_operator,
    factorization_check,
    solve_factors,
    validate_enlargement,
)
from driftlab.errors import NotAdapted, NotAMartingale, Unsolvable
from driftlab.linalg import min_norm_solve, vec_dot
from driftlab.models import (
    GeneratorConfig,
    gen_random_instance,
    random_adapted,
    random_martingale,
    worked_four_point,
    worked_six_point,
)
from driftlab.rational import ONE, ZERO, Q
from driftlab.representation import build_representation, represent
from driftlab.viability import solve_accessible_K

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
    from driftlab.basis import Process
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
    from driftlab.basis import Process
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
    martingale.
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
            Ds = [(solve_accessible_K(eb, rep, factors), None),
                  (solve_accessible_K(eb, rep, factors, D), represent(rep, D))]
            transfers += 1
        for k in range(1, eb.base.K + 1):
            for c in eb.enlarged.pre(k).blocks:
                if not eb.horizon.alive_block(c, k):
                    continue
                i = min(c)
                b = eb.base.pre(k).block_of(i)
                kids = rep.children[(k, b)]
                rows = [rep.W.jump(min(kid), k) if kid else zero for kid in kids]
                pbar = [eb.space.mass(kid & c) / eb.space.mass(c) for kid in kids]
                gamma = [sum((pb * row[h] for pb, row in zip(pbar, rows)), ZERO)
                         for h in range(rep.width)]
                V = _cov(rep.probs[(k, b)], rows, zero)
                phi = factors.phi.at(i, k)
                assert list(phi) == min_norm_solve(V, gamma)
                Vt = _cov(pbar, rows, gamma)
                for K, HD in Ds:
                    x = phi if HD is None else [a + h for a, h in zip(phi, HD.at(i, k))]
                    assert list(K.at(i, k)) == min_norm_solve(Vt, [vec_dot(r, x) for r in V])
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
