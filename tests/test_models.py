import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.basis import alive_atoms, is_stopping_time, validate
from driftlab.calculus import doleans_exp, is_martingale
from driftlab.enlargement import check_condition_support, validate_enlargement
from driftlab.errors import DataInvariantViolated, JacodDegenerate, NotARandomTime
from driftlab.event_kernels import validate_inaccessible
from driftlab.models import (
    GeneratorConfig,
    azema_phi_crosscheck,
    gen_initial_enlargement,
    gen_progressive_enlargement,
    gen_random_instance,
    gen_single_filtration,
    jacod_density_table,
    jacod_phi_crosscheck,
    random_adapted,
    random_inaccessible_event_data,
    random_martingale,
    random_stopping_time,
    random_viable_asset,
    tilted_component_assets,
)
from driftlab.oracle import check_deflator
from driftlab.rational import ONE, ZERO, Q
from driftlab.representation import build_representation, fired_component
from driftlab.serialize import dumps, process_to_json
from driftlab.viability import find_structure_connector
from reference import worked_four_point, worked_six_point

KINDS = ("random", "initial", "progressive")

# SHA-256 of test_generators_are_pinned's records; any change to a
# generator's values, types or draw order moves it.
PINNED_GENERATOR_DIGEST = "3cf4d0dbc0bc15925feb75f4f793e74d37721209db5b6b541e92582d2b951771"


@given(st.integers(min_value=0, max_value=400))
def test_generated_enlargements_validate(seed):
    kind = KINDS[seed % 3]
    eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=kind))
    diag = validate_enlargement(eb)
    assert diag.ok, diag.errors
    assert is_stopping_time(eb.enlarged, eb.horizon)
    assert 4 <= eb.space.n <= 9 and 1 <= eb.base.K <= 3
    assert all(len(kids) <= 3 for kids in eb.base.child_map.values())


@given(st.integers(min_value=0, max_value=300))
def test_forced_instances_fail_support(seed):
    kind = KINDS[seed % 3]
    eb = gen_random_instance(GeneratorConfig(
        seed=seed, enlargement_kind=kind, force_condition_failure=True))
    assert validate_enlargement(eb).ok
    assert not check_condition_support(eb).ok


def test_unknown_enlargement_kind_is_rejected():
    with pytest.raises(DataInvariantViolated):
        gen_random_instance(GeneratorConfig(seed=0, enlargement_kind="bogus"))


@given(st.integers(min_value=0, max_value=300))
def test_random_stopping_times_are_stopping_times(seed):
    rng = random.Random(f"st:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
    T = random_stopping_time(rng, sp, filt)
    assert is_stopping_time(filt, T)


@given(st.integers(min_value=0, max_value=300))
def test_random_martingale_is_martingale(seed):
    rng = random.Random(f"rm:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 3), 3)
    X = random_martingale(rng, sp, filt)
    assert is_martingale(sp, filt, X)
    capped = random_martingale(rng, sp, filt, cap=Q(7, 8))
    assert is_martingale(sp, filt, capped)
    for i in range(sp.n):
        for k in range(1, filt.K + 1):
            assert abs(capped.jump(i, k)[0]) <= Q(7, 8)


@given(st.integers(min_value=0, max_value=200))
def test_viable_asset_construction(seed):
    rng = random.Random(f"va:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 9), rng.randint(1, 3), 3)
    S, D, Z = random_viable_asset(rng, sp, filt)
    assert all(S.scalar(i, k) > ZERO
               for i in range(sp.n) for k in range(filt.K + 1))
    assert check_deflator(sp, filt, S, Z)


@given(st.integers(min_value=0, max_value=100))
def test_tilted_assets_are_positive_and_viable(seed):
    rng = random.Random(f"tilt:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(3, 8), rng.randint(1, 2), 3)
    family = tilted_component_assets(sp, filt)
    from driftlab.representation import multiplicity
    if multiplicity(filt) > 1:
        assert family
    for S in family:
        assert all(S.scalar(i, k) > ZERO
                   for i in range(sp.n) for k in range(filt.K + 1))
        assert find_structure_connector(sp, filt, S).found


def test_tilted_assets_are_the_exponentials_of_fired_components():
    """Each tilted asset equals doleans_exp of its fired driving component, in order.

    The reference walks every outcome and tick; the assets are built once
    per atom.  Checked on the bases of gen_random_instance seeds 0-399,
    the three enlargement kinds in rotation.
    """
    count = 0
    for seed in range(400):
        eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=KINDS[seed % 3]))
        rep = build_representation(eb.space, eb.base)
        reference = [doleans_exp(fired_component(rep, k, b, slot))
                     for k, b, kids in alive_atoms(eb.base) if len(kids) >= 2
                     for slot in range(len(kids))]
        assets = tilted_component_assets(eb.space, eb.base, rep)
        assert [X.values for X in assets] == [X.values for X in reference], seed
        assert all(X.dim == 1 for X in assets)
        count += len(assets)
    assert count == 1664


def test_worked_instances_validate():
    six = worked_six_point()
    assert validate_enlargement(six["eb"]).ok
    four = worked_four_point()
    assert validate_enlargement(four["eb"]).ok
    assert six["eb"].space.n == 6
    assert four["eb"].space.n == 4


def test_progressive_rejects_invalid_time():
    rng = random.Random("badtau")
    sp, base = gen_single_filtration(rng, 4, 2, 2)
    with pytest.raises(NotARandomTime):
        gen_progressive_enlargement(sp, base, [-1] * sp.n)


@given(st.integers(min_value=0, max_value=250))
def test_jacod_crosscheck(seed):
    rng = random.Random(f"jx:{seed}")
    sp, base = gen_single_filtration(rng, rng.randint(3, 9), rng.randint(1, 3), 3)
    blocks = base.at(base.K).blocks
    xi = [0] * sp.n
    for b in blocks:
        label = rng.randint(0, 1)
        for i in b:
            xi[i] = label
    if len({xi[i] for i in range(sp.n)}) < 2:
        for i in blocks[0]:
            xi[i] = 1 - xi[i]
    eb = gen_initial_enlargement(sp, base, xi)
    try:
        assert jacod_phi_crosscheck(eb, xi)
    except JacodDegenerate:
        pass


def test_jacod_degenerate_raises():
    from driftlab.basis import Filtration, Partition, SampleSpace
    sp = SampleSpace(tuple("abcd"), (Q(1, 4),) * 4)
    top = Partition([[0, 1, 2, 3]])
    mid = Partition([[0, 1], [2, 3]])
    fine = Partition([[0], [1], [2], [3]])
    base = Filtration(top, ((mid, mid), (fine, fine)))
    xi = [0, 0, 1, 1]  # perfectly revealed at tick 1: density table hits zero
    eb = gen_initial_enlargement(sp, base, xi)
    with pytest.raises(JacodDegenerate):
        jacod_phi_crosscheck(eb, xi)


@given(st.integers(min_value=0, max_value=250))
def test_azema_crosscheck(seed):
    rng = random.Random(f"az:{seed}")
    sp, base = gen_single_filtration(rng, rng.randint(3, 9), rng.randint(1, 3), 3)
    tau = random_stopping_time(rng, sp, base).values
    eb = gen_progressive_enlargement(sp, base, tau)
    assert azema_phi_crosscheck(eb, tau)


def test_density_table_shape():
    rng = random.Random("table")
    sp, base = gen_single_filtration(rng, 6, 2, 3)
    xi = [i % 2 for i in range(sp.n)]
    table = jacod_density_table(sp, base, xi)
    assert set(table) == {"values", "at", "pre"}
    for x in table["values"]:
        # unconditional mean of the density is one at every tick
        for k in range(base.K + 1):
            mean = sum((sp.prob[i] * table["at"][(x, k)][i]
                        for i in range(sp.n)), ZERO)
            assert mean == ONE


@given(st.integers(min_value=0, max_value=300))
def test_random_event_data_validates(seed):
    data = random_inaccessible_event_data(random.Random(f"ev:{seed}"))
    validate_inaccessible(data)


def test_generators_are_pinned():
    """The test-data generators keep their values and their draw order.

    Hashed, per seed on a `gen_single_filtration` basis: random_martingale
    without and with a cap, random_viable_asset's (S, D, Z) in dims 1 and
    2, random_adapted in dims 1 and 2, and the next rng.random() after
    them all, which pins how many draws each generator makes.
    """
    records = []
    for seed in range(60):
        rng = random.Random(f"gen:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 12), rng.randint(1, 4), 3)
        procs = [random_martingale(rng, sp, filt), random_martingale(rng, sp, filt, cap=Q(7, 8))]
        for dim in (1, 2):
            procs.extend(random_viable_asset(rng, sp, filt, dim=dim))
        for dim in (1, 2):
            procs.append(random_adapted(rng, sp, filt, dim=dim))
        assert all(type(v) is Q for X in procs for row in X.values for x in row for v in x)
        records.append([process_to_json(X) for X in procs] + [rng.random().hex()])
    digest = hashlib.sha256(dumps(records).encode("utf-8")).hexdigest()
    assert digest == PINNED_GENERATOR_DIGEST
