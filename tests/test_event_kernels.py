import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.errors import DataInvariantViolated, ZeroProbabilityBranch
from driftlab.event_kernels import (
    AccessibleEventData,
    accessible_jump_value,
    inaccessible_jump_value,
    quotient_identity_holds,
    reduced_equation_holds,
    validate_accessible,
    validate_inaccessible,
)
from driftlab.models import random_inaccessible_event_data
from driftlab.rational import ONE, ZERO, Q


def accessible_golden():
    return AccessibleEventData(
        p=(Q(1, 2), Q(1, 2)),
        pbar=(Q(3, 4), Q(1, 4)),
        n_vals=((Q(1),), (Q(-1),)),
        d_vals=(ZERO, ZERO),
        phi=(Q(1, 2),),
    )


def test_accessible_golden_values():
    data = accessible_golden()
    validate_accessible(data)
    assert accessible_jump_value(data, 0) == Q(1, 3)
    assert accessible_jump_value(data, 1) == Q(-1)


def test_accessible_rejects_broken_tilt():
    data = accessible_golden()
    bad = AccessibleEventData(data.p, (Q(1, 4), Q(3, 4)), data.n_vals,
                              data.d_vals, data.phi)
    with pytest.raises(DataInvariantViolated):
        validate_accessible(bad)


def test_accessible_zero_probability_branch():
    data = AccessibleEventData(
        p=(ONE, ZERO),
        pbar=(ONE, ZERO),
        n_vals=((ZERO,), (ZERO,)),
        d_vals=(ZERO, ZERO),
        phi=(Q(1, 2),),
    )
    validate_accessible(data)
    with pytest.raises(ZeroProbabilityBranch):
        accessible_jump_value(data, 1)


@given(st.integers(min_value=0, max_value=2000))
def test_inaccessible_identities(seed):
    data = random_inaccessible_event_data(random.Random(f"ek:{seed}"))
    validate_inaccessible(data)
    for k in range(len(data.q)):
        inaccessible_jump_value(data, k)
        assert reduced_equation_holds(data, k)
        assert quotient_identity_holds(data, k)


def test_inaccessible_rejects_tampered_multiplier():
    from dataclasses import replace

    data = random_inaccessible_event_data(random.Random("tamper"))
    pairing = None
    for k in range(len(data.q)):
        if data.q[k] <= ZERO:
            continue
        pk = sum((a * b for a, b in zip(data.phi, data.pair_rows[k])), ZERO)
        if pk != ZERO:
            pairing = pk
            break
    assert pairing is not None, "generator produced a fully degenerate sample"
    scale = Q(-2) / pairing
    bad = replace(data, phi=tuple(scale * v for v in data.phi))
    with pytest.raises(DataInvariantViolated):
        validate_inaccessible(bad)
