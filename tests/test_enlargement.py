import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.calculus import is_martingale, is_predictable
from driftlab.enlargement import (
    check_condition_support,
    check_positivity,
    compensator_transfer_check,
    drift_operator,
    factorization_check,
    solve_factors,
    validate_enlargement,
)
from driftlab.errors import NotAdapted, NotAMartingale
from driftlab.models import (
    GeneratorConfig,
    gen_random_instance,
    random_adapted,
    random_martingale,
    worked_four_point,
    worked_six_point,
)
from driftlab.rational import ZERO, Q
from driftlab.representation import build_representation

KINDS = ("random", "initial", "progressive")


def instance(seed, force=False):
    kind = KINDS[seed % 3]
    return gen_random_instance(GeneratorConfig(
        seed=seed, enlargement_kind=kind, force_condition_failure=force))


@given(st.integers(min_value=0, max_value=300))
def test_generated_instances_validate(seed):
    eb = instance(seed)
    assert validate_enlargement(eb).ok


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
