import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.errors import DataInvariantViolated
from driftlab.event_kernels import (
    inaccessible_jump_value,
    quotient_identity_holds,
    reduced_equation_holds,
    validate_inaccessible,
)
from driftlab.models import random_inaccessible_event_data
from driftlab.rational import ZERO, Q


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
