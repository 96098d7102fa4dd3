import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.basis import (
    Filtration,
    Partition,
    Process,
    SampleSpace,
    StoppingTime,
    alive_atoms,
    cond_expect,
    cond_prob,
    is_stopping_time,
    validate,
)
from driftlab.calculus import doleans_exp
from driftlab.enlargement import check_condition_support
from driftlab.errors import DimensionMismatch, NotAStoppingTime
from driftlab.models import (GeneratorConfig, gen_random_instance, gen_single_filtration,
                             random_adapted, random_stopping_time, tilted_component_assets)
from driftlab.rational import ONE, ZERO, Q
from driftlab.representation import build_representation
from driftlab.viability import witness_asset

KINDS = ("random", "initial", "progressive")


def space4():
    return SampleSpace(("a", "b", "c", "d"), (Q(1, 4),) * 4)


def test_partition_canonical_order():
    p = Partition([[2, 0], [3], [1]])
    assert p.blocks == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    assert p.block_of(2) == frozenset({0, 2})


def test_refines_and_meet():
    fine = Partition([[0], [1], [2, 3]])
    coarse = Partition([[0, 1], [2, 3]])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    other = Partition([[0, 2], [1, 3]])
    met = coarse.meet(other)
    assert met.blocks == (frozenset({0}), frozenset({1}),
                          frozenset({2}), frozenset({3}))


def test_children_ordered_by_smallest_outcome():
    coarse = Partition([[0, 1, 2, 3]])
    fine = Partition([[3], [0, 2], [1]])
    filt = Filtration(coarse, ((coarse, fine),))
    kids = filt.child_map[(1, frozenset({0, 1, 2, 3}))]
    assert [min(b) for b in kids] == [0, 1, 3]
    assert fine.refines(coarse)


def assert_children_match_brute_force(space, filt):
    assert set(filt.child_map) == {(k, b) for k in range(1, filt.K + 1)
                                   for b in filt.pre(k).blocks}
    for (k, b), kids in filt.child_map.items():
        assert list(kids) == [c for c in filt.at(k).blocks if c <= b]
        p = space.split(kids)
        total = sum(space.prob[i] for i in b)
        assert list(p) == [sum(space.prob[i] for i in c) / total for c in kids]
        assert sum(p) == ONE
        assert space.split(kids) is p  # the cached split


def test_child_map_and_split_match_brute_force():
    for seed in range(30):
        rng = random.Random(f"children:{seed}")
        space, filt = gen_single_filtration(rng, rng.randint(2, 12), rng.randint(1, 4), 3)
        assert_children_match_brute_force(space, filt)
        for kind in ("random", "initial", "progressive"):
            eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=kind,
                                                     force_condition_failure=seed % 2 == 1))
            assert_children_match_brute_force(eb.space, eb.base)
            assert_children_match_brute_force(eb.space, eb.enlarged)


def test_split_cache_stays_on_its_space():
    """Two spaces with the same outcomes and filtration but other masses split apart.

    Each space caches its own conditional probabilities; a second call on
    either returns the values of the first, interleaved or not.
    """
    for seed in range(20):
        rng = random.Random(f"split-cache:{seed}")
        first, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 3), 3)
        weights = [rng.randint(1, 9) for _ in range(first.n)]
        second = SampleSpace(first.outcomes, [Q(w, sum(weights)) for w in weights])
        for k, b, kids in alive_atoms(filt):
            assert kids == filt.child_map[(k, b)]
            splits = {space: tuple(space.mass(c) / space.mass(b) for c in kids)
                      for space in (first, second)}
            for space in (first, second, first, second):
                assert space.split(kids) == splits[space]


def test_cond_expect_golden():
    sp = SampleSpace(("a", "b", "c"), (Q(1, 2), Q(1, 4), Q(1, 4)))
    part = Partition([[0], [1, 2]])
    vals = cond_expect(sp, part, [Q(4), Q(2), Q(6)])
    assert vals == (Q(4), Q(4), Q(4))


def test_cond_prob_golden():
    sp = space4()
    part = Partition([[0, 1], [2, 3]])
    got = cond_prob(sp, part, frozenset({1, 2}))
    assert got == (Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2))
    assert cond_prob(sp, part, frozenset(range(4))) == (ONE,) * 4


@given(st.integers(min_value=0, max_value=400))
def test_tower_property(seed):
    rng = random.Random(f"tower:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(3, 9), rng.randint(1, 3), 3)
    X = random_adapted(rng, sp, filt)
    k = rng.randint(1, filt.K)
    vals = [X.scalar(i, filt.K) for i in range(sp.n)]
    inner = cond_expect(sp, filt.at(k), vals)
    assert cond_expect(sp, filt.pre(k), inner) == cond_expect(sp, filt.pre(k), vals)


def test_validate_accepts_generated():
    for seed in range(25):
        rng = random.Random(f"basis:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
        diag = validate(sp, filt)
        assert diag.ok, diag.errors


def test_validate_rejects_broken_chain():
    sp = space4()
    fine = Partition([[0], [1], [2], [3]])
    coarse = Partition([[0, 1], [2, 3]])
    # at(1) does not refine pre(1) backwards: pre(2) coarser than at(1)
    filt = Filtration(Partition([[0, 1, 2, 3]]), ((coarse, fine), (coarse, coarse)))
    diag = validate(sp, filt)
    assert not diag.ok
    assert diag.errors


def test_validate_rejects_bad_mass():
    sp = SampleSpace(("a", "b"), (Q(1, 2), Q(1, 4)))
    filt = Filtration(Partition([[0, 1]]), ((Partition([[0, 1]]),) * 2,))
    diag = validate(sp, filt)
    assert not diag.ok


def test_stopping_time_classification():
    sp = space4()
    coarse = Partition([[0, 1], [2, 3]])
    fine = Partition([[0], [1], [2], [3]])
    filt = Filtration(Partition([[0, 1, 2, 3]]),
                      ((coarse, coarse), (fine, fine)))
    hit = StoppingTime((1, 1, 2, 2))
    assert is_stopping_time(filt, hit)
    late = StoppingTime((2, 1, 2, 2))
    assert not is_stopping_time(filt, late)


def test_stopping_time_accessible_case():
    sp = space4()
    coarse = Partition([[0, 1], [2, 3]])
    fine = Partition([[0], [1], [2], [3]])
    filt = Filtration(Partition([[0, 1, 2, 3]]), ((coarse, fine),))
    t = StoppingTime((1, 0, 1, 1))
    # {T = 0} = {b} needs at(0) knowledge finer than the initial partition
    assert not is_stopping_time(filt, t)
    u = StoppingTime((1, 1, 1, 1))
    assert is_stopping_time(filt, u)
    v = StoppingTime((0, 0, 0, 0))
    assert is_stopping_time(filt, v)


def test_alive_block_refuses_a_straddling_atom():
    t = StoppingTime((1, 2, 2, None))
    assert t.alive_block(frozenset({1, 2, 3}), 2)
    assert not t.alive_block(frozenset({0}), 2)
    with pytest.raises(NotAStoppingTime) as exc:
        t.alive_block(frozenset({0, 1}), 2)
    assert exc.value.detail == {"tick": 2, "atom": [0, 1]}


def test_stopping_time_events():
    t = StoppingTime((0, 1, None, 1))
    assert t.leq_event(1) == frozenset({0, 1, 3})
    assert t.geq(2, 5) and t.geq(1, 1) and not t.geq(0, 1)
    assert StoppingTime.constant(4, 2).values == (2, 2, 2, 2)


def test_process_jump_convention():
    X = Process.from_scalar_paths([[1, 3, 2], [0, 0, 5]])
    assert X.jump(0, 0) == (ZERO,)
    assert X.jump(0, 1) == (Q(2),)
    assert X.jump(1, 2) == (Q(5),)
    assert X.ticks == 2 and X.n == 2


def test_child_jumps_are_the_jumps_at_each_childs_smallest_outcome():
    """child_jumps(k, kids) == [jump(min(kid), k)], tick 0 included, in dimensions 1 and 2."""
    for seed in range(40):
        rng = random.Random(f"child-jumps:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
        X = random_adapted(rng, sp, filt, dim=rng.choice((1, 2)))
        for k in range(filt.K + 1):
            kids = filt.at(k).blocks
            assert X.child_jumps(k, kids) == [X.jump(min(kid), k) for kid in kids]


def test_process_from_jumps_round_trip():
    X = Process.from_scalar_paths([[1, 3, 2], [1, 0, 5]])
    Y = Process.from_jumps(2, 2, lambda i, k: X.jump(i, k), start=(Q(1),))
    assert Y == X


def test_process_arithmetic():
    X = Process.from_scalar_paths([[1, 2]])
    Y = Process.from_scalar_paths([[3, 5]])
    assert (X + Y).at(0, 1) == (Q(7),)
    assert (Y - X).at(0, 0) == (Q(2),)
    assert X.scale(Q(-2)).at(0, 1) == (Q(-4),)


@given(st.integers(min_value=0, max_value=200))
def test_negation_is_scaling_by_minus_one(seed):
    rng = random.Random(f"neg:{seed}")
    space, filt = gen_single_filtration(rng, rng.randint(2, 6), rng.randint(1, 3), 3)

    def fields(P):
        return [[[(type(a), a.numerator, a.denominator) for a in x] for x in row]
                for row in P.values]

    for dim in (1, 2):
        X = random_adapted(rng, space, filt, dim=dim)
        neg, ref = -X, X.scale(Q(-1))
        assert neg.dim == ref.dim == dim
        assert fields(neg) == fields(ref)


def test_process_arithmetic_refuses_differing_shapes():
    """`+` and `-` raise on a differing outcome or tick count; they do not truncate."""
    X = Process.from_scalar_paths([[1, 2], [3, 4]])
    for other in (Process.from_scalar_paths([[1, 2]]),
                  Process.from_scalar_paths([[1, 2, 3], [4, 5, 6]]),
                  Process(1, ())):
        for a, b in ((X, other), (other, X)):
            for op in (lambda u, v: u + v, lambda u, v: u - v):
                with pytest.raises(DimensionMismatch, match="shapes differ"):
                    op(a, b)
    with pytest.raises(DimensionMismatch, match="dims differ"):
        X + Process(2, [[(ONE, ONE), (ONE, ONE)]] * 2)


def test_process_constructor_contract():
    """One pass: tuples kept, lists and scalars normalized, bad elements and ragged rows refused."""
    t = (Q(1), Q(2))
    X = Process(2, [[t, [Q(3), Q(4)]], ([ZERO, ONE], t)])
    assert X.values == ((t, (Q(3), Q(4))), ((ZERO, ONE), t))
    assert X.values[0][0] is t and X.values[1][1] is t
    assert Process(1, [[Q(5), (Q(6),)]]).values == (((Q(5),), (Q(6),)),)
    assert Process(1, iter([iter([ONE, ZERO])])).values == (((ONE,), (ZERO,)),)
    assert Process(1, ()).n == 0
    # a wrong-length element anywhere raises the same message, the first one in row-major order
    for bad, got in (((ONE,), 1), ((ONE, ONE, ONE), 3), ([ONE], 1), (ONE, 1)):
        for i in range(3):
            for k in range(2):
                rows = [[t, t] for _ in range(3)]
                rows[i][k] = bad
                if i < 2:
                    rows[2][1] = (ONE,) * 4  # a later bad element, never the one named
                with pytest.raises(DimensionMismatch) as exc:
                    Process(2, rows)
                assert str(exc.value) == f"expected dim 2, got {got}"
    # ragged rows: one element row 0 and two after it, or the other way round
    for rows in ([[Q(0)], [Q(0), Q(1)]], [[Q(0), Q(1)], [Q(0)]],
                 [[Q(0), Q(1)], [Q(0), Q(1)], [Q(0), Q(1), Q(2)]]):
        with pytest.raises(DimensionMismatch, match="ragged rows"):
            Process(1, rows)
    # a bad element is named before its own row's length
    with pytest.raises(DimensionMismatch, match="expected dim 1, got 2"):
        Process(1, [[ONE, ONE], [(ONE, ONE)]])


@given(st.integers(min_value=0, max_value=400))
def test_alive_atoms_is_the_nested_alive_block_walk(seed):
    rng = random.Random(f"alive:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
    for horizon in (None, random_stopping_time(rng, sp, filt)):
        expected = [(k, b, filt.child_map[(k, b)]) for k in range(1, filt.K + 1)
                    for b in filt.pre(k).blocks if horizon is None or horizon.alive_block(b, k)]
        assert list(alive_atoms(filt, horizon)) == expected
    assert len(list(alive_atoms(filt))) == len(filt.child_map)


def test_alive_atoms_refuses_a_horizon_that_is_not_a_stopping_time():
    whole, halves = Partition([[0, 1, 2, 3]]), Partition([[0, 1], [2, 3]])
    filt = Filtration(whole, ((whole, halves), (halves, Partition([[0], [1], [2], [3]]))))
    walk = alive_atoms(filt, StoppingTime((1, 2, 2, 2)))  # {T >= 2} splits {0, 1}
    assert next(walk) == (1, frozenset(range(4)), halves.blocks)
    with pytest.raises(NotAStoppingTime) as exc:
        list(walk)
    assert exc.value.detail == {"tick": 2, "atom": [0, 1]}


def uncached_walk(filt, horizon):
    """(k, b, kids) of the nested alive_block walk, kids from child_map."""
    return [(k, b, filt.child_map[(k, b)]) for k in range(1, filt.K + 1)
            for b in filt.pre(k).blocks if horizon is None or horizon.alive_block(b, k)]


def test_alive_atoms_stores_a_walk_on_its_second_completion():
    """The first completed walk under a horizon is marked, the second stored, later ones read.

    A constant horizon, random stopping times and an equal but distinct
    StoppingTime each give the uncached walk on every call, and the walk
    is stored, as the triples it yields, only when it completes for the
    second time.  A walk without a horizon gives it too and stores nothing.
    """
    for seed in range(60):
        rng = random.Random(f"alive-memo:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
        assert list(alive_atoms(filt)) == list(alive_atoms(filt)) == uncached_walk(filt, None)
        assert filt._alive == {}
        T = random_stopping_time(rng, sp, filt)
        horizons = {h.values: h for h in (StoppingTime.constant(sp.n, rng.randint(0, filt.K)), T)}
        for horizon in horizons.values():
            walk = uncached_walk(filt, horizon)
            assert list(alive_atoms(filt, horizon)) == walk
            assert filt._alive[horizon.values] is None
            assert list(alive_atoms(filt, horizon)) == walk
            stored = filt._alive[horizon.values]
            assert list(stored) == walk
            for _ in range(3):
                assert list(alive_atoms(filt, horizon)) == walk
                assert filt._alive[horizon.values] is stored
        stored, count = filt._alive[T.values], len(filt._alive)
        again = StoppingTime(list(T.values))
        assert again is not T and again == T
        assert list(alive_atoms(filt, again)) == uncached_walk(filt, T)
        assert filt._alive[T.values] is stored and len(filt._alive) == count


def test_an_unfinished_walk_stores_nothing():
    """A walk abandoned after its first atom counts for nothing; full walks mark, then store."""
    for seed in range(30):
        rng = random.Random(f"alive-abandoned:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
        horizon = StoppingTime.constant(sp.n, filt.K)
        first = filt.pre(1).blocks[0]
        for _ in range(4):
            walker = alive_atoms(filt, horizon)
            assert next(walker) == (1, first, filt.child_map[(1, first)])
            walker.close()
            assert filt._alive == {}
        assert list(alive_atoms(filt, horizon)) == uncached_walk(filt, None)
        assert filt._alive == {horizon.values: None}
        for _ in range(2):
            walker = alive_atoms(filt, horizon)
            next(walker)
            walker.close()
            assert filt._alive == {horizon.values: None}
        assert list(alive_atoms(filt, horizon)) == uncached_walk(filt, None)
        assert list(filt._alive[horizon.values]) == uncached_walk(filt, None)


def test_a_straddling_horizon_raises_on_every_walk():
    """The refused walk stores nothing, so a second walk raises at the same (tick, atom)."""
    whole, halves = Partition([[0, 1, 2, 3]]), Partition([[0, 1], [2, 3]])
    filt = Filtration(whole, ((whole, halves), (halves, Partition([[0], [1], [2], [3]]))))
    details = []
    for _ in range(4):
        with pytest.raises(NotAStoppingTime) as exc:
            list(alive_atoms(filt, StoppingTime((1, 2, 2, 2))))
        details.append(exc.value.detail)
        assert filt._alive == {}
    assert details == [{"tick": 2, "atom": [0, 1]}] * 4


def test_from_jump_table_is_zero_on_absent_keys():
    for seed in range(30):
        rng = random.Random(f"jump-table:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
        T = random_stopping_time(rng, sp, filt)
        dim = rng.choice((1, 2))
        table = {(k, kid): tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
                 for k, _, kids in alive_atoms(filt, T) for kid in kids}

        def jumps(i, k):
            if not T.geq(i, k):
                return (ZERO,) * dim
            return table[(k, filt.at(k).block_of(i))]

        X = Process.from_jump_table(sp.n, filt, table, dim)
        assert X == Process.from_jumps(sp.n, filt.K, jumps, dim=dim)
        assert all(X.at(i, 0) == (ZERO,) * dim for i in range(sp.n))
        assert Process.from_jump_table(sp.n, filt, {}, dim) == Process.zeros(sp.n, filt.K, dim)
    scalar = {(1, frozenset({0, 1})): Q(1, 2)}
    whole, halves = Partition([[0, 1, 2, 3]]), Partition([[0, 1], [2, 3]])
    filt = Filtration(whole, ((whole, halves),))
    assert Process.from_jump_table(4, filt, scalar) == \
        Process.from_scalar_paths([[0, Q(1, 2)], [0, Q(1, 2)], [0, 0], [0, 0]])


def test_table_builders_refuse_a_wrong_dimension_entry():
    whole, halves = Partition([[0, 1, 2, 3]]), Partition([[0, 1], [2, 3]])
    filt = Filtration(whole, ((whole, halves), (halves, halves)))
    left, right = frozenset({0, 1}), frozenset({2, 3})
    for entry in ((Q(1),), (Q(1), Q(2), Q(3))):
        with pytest.raises(DimensionMismatch):
            Process.from_jump_table(4, filt, {(2, right): entry}, 2)
        with pytest.raises(DimensionMismatch):
            Process.from_atom_table(4, filt, {(2, right): entry}, 2)
        values = {(0, whole.blocks[0]): (ZERO, ZERO), (1, left): (ONE, ONE), (1, right): entry,
                  (2, left): (ONE, ONE), (2, right): (ONE, ONE)}
        with pytest.raises(DimensionMismatch):
            Process.from_value_table(4, filt, values, 2)


def test_from_value_table_puts_each_atom_value_on_its_outcomes():
    for seed in range(30):
        rng = random.Random(f"value-table:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 4), 3)
        dim = rng.choice((1, 2))
        table = {(k, c): tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
                 for k in range(filt.K + 1) for c in filt.at(k).blocks}
        X = Process.from_value_table(sp.n, filt, table, dim)
        assert X.values == tuple(tuple(table[(k, filt.at(k).block_of(i))]
                                       for k in range(filt.K + 1)) for i in range(sp.n))
        with pytest.raises(KeyError):
            Process.from_value_table(sp.n, filt, dict(list(table.items())[1:]), dim)


def test_from_atom_table_reads_an_absent_key_as_zero():
    whole, halves = Partition([[0, 1, 2, 3]]), Partition([[0, 1], [2, 3]])
    filt = Filtration(whole, ((whole, halves), (halves, halves)))
    H = Process.from_atom_table(4, filt, {(2, frozenset({2, 3})): (Q(3), Q(-1))}, 2)
    zero = (ZERO, ZERO)
    assert H.values == ((zero, zero, zero),) * 2 + ((zero, zero, (Q(3), Q(-1))),) * 2


def test_witness_asset_is_a_tilted_component_asset():
    """Both build a driving component fired on one atom; the witness is among the family."""
    for seed in range(12):
        eb = gen_random_instance(GeneratorConfig(seed=seed, enlargement_kind=KINDS[seed % 3],
                                                 force_condition_failure=True))
        rep = build_representation(eb.space, eb.base)
        support = check_condition_support(eb)
        witness = witness_asset(eb, rep, support)
        b = eb.base.pre(support.tick).block_of(min(support.atom))
        slot = eb.base.child_map[(support.tick, b)].index(support.child)
        expected = Process.from_jumps(
            eb.space.n, eb.base.K,
            lambda i, k: (rep.W.jump(i, k)[slot] if k == support.tick and i in b else ZERO,))
        assert witness == expected
        assert doleans_exp(witness) in tilted_component_assets(eb.space, eb.base, rep)
