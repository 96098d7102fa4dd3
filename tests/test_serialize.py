import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.basis import StoppingTime
from driftlab.errors import SchemaError
from driftlab.models import (
    GeneratorConfig,
    gen_random_instance,
    gen_single_filtration,
    random_adapted,
)
from driftlab.rational import Q
from driftlab.serialize import (
    basis_from_json,
    basis_to_json,
    dumps,
    encode_exact,
    horizon_from_json,
    horizon_to_json,
    instance_from_json,
    instance_to_json,
    loads,
    process_from_json,
    process_to_json,
    viability_report_to_json,
)
from driftlab.viability import full_viability_verdict
from reference import worked_six_point

KINDS = ("random", "initial", "progressive")


@given(st.integers(min_value=0, max_value=300))
def test_basis_round_trip(seed):
    rng = random.Random(f"ser:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
    doc = basis_to_json(sp, filt)
    sp2, filt2 = basis_from_json(loads(dumps(doc)))
    assert sp2 == sp
    assert filt2 == filt


@given(st.integers(min_value=0, max_value=300))
def test_instance_round_trip(seed):
    kind = KINDS[seed % 3]
    eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=kind))
    doc = instance_to_json(eb)
    eb2 = instance_from_json(loads(dumps(doc)))
    assert eb2 == eb


@given(st.integers(min_value=0, max_value=300))
def test_process_round_trip(seed):
    rng = random.Random(f"proc:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 8), rng.randint(1, 3), 3)
    X = random_adapted(rng, sp, filt, dim=rng.choice((1, 2, 3)))
    doc = process_to_json(X)
    X2 = process_from_json(loads(dumps(doc)), n=sp.n, ticks=filt.K)
    assert X2 == X


def test_horizon_round_trip():
    t = StoppingTime((0, 2, None, 1))
    doc = horizon_to_json(t)
    assert horizon_from_json(doc, 4, 2) == t
    # ticks beyond the grid normalize to never
    assert horizon_from_json([0, 99, None, 1], 4, 2) == StoppingTime((0, None, None, 1))


def test_rationals_serialized_as_strings():
    doc = encode_exact({"a": Q(3, 4), "b": [Q(-1, 2)], "c": frozenset({2, 1})})
    assert doc == {"a": "3/4", "b": ["-1/2"], "c": [1, 2]}


def test_dumps_is_stable():
    doc = {"b": 1, "a": [2, 3]}
    assert dumps(doc) == dumps({"a": [2, 3], "b": 1})
    assert dumps(doc).endswith("\n")


def test_loads_rejects_garbage():
    with pytest.raises(SchemaError):
        loads("not json")
    with pytest.raises(SchemaError):
        loads("[1, 2]")


def test_bad_documents_raise_schema_errors():
    with pytest.raises(SchemaError):
        basis_from_json({"outcomes": ["a"], "prob": ["1/1"]})  # missing filtration
    with pytest.raises(SchemaError):
        process_from_json({"dim": 1, "values": "nope"}, n=1, ticks=1)
    with pytest.raises(SchemaError):
        basis_from_json({"outcomes": ["a", "b"], "prob": ["1/2", "x"],
                         "filtration": {"initial": [[0, 1]], "ticks": []}})


def test_viability_report_shape():
    six = worked_six_point()
    report = full_viability_verdict(six["eb"])
    doc = viability_report_to_json(report)
    assert doc["verdict"] is True
    assert doc["condition_support"] is True
    assert doc["witness"] is None
    blob = dumps(doc)
    assert "deflator" in loads(blob)
