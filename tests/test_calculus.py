import operator
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.basis import Process, StoppingTime, cond_expect
from driftlab.calculus import (
    compensator,
    doleans_exp,
    is_adapted,
    is_martingale,
    is_predictable,
    jump_mean,
    martingale_violation,
    stoch_integral,
    stop,
)
from driftlab.errors import NotAdapted
from driftlab.models import (
    gen_single_filtration,
    random_adapted,
    random_martingale,
    random_stopping_time,
)
from driftlab.rational import ONE, ZERO, Q
from reference import bracket, canonical_decomposition, comp_bracket, pointwise_mul


def draw(seed, label="calc"):
    rng = random.Random(f"{label}:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(3, 9), rng.randint(1, 3), 3)
    return rng, sp, filt


def shift(X: Process) -> Process:
    """Previous-tick sampling, turning an adapted path into a predictable one."""
    rows = tuple((row[0],) + row[:-1] for row in X.values)
    return Process(X.dim, rows)


def test_martingale_golden():
    # fair coin: +1/-1 with equal mass
    X = Process.from_scalar_paths([[0, 1], [0, -1]])
    from driftlab.basis import Filtration, Partition, SampleSpace
    sp = SampleSpace(("u", "d"), (Q(1, 2), Q(1, 2)))
    filt = Filtration(Partition([[0, 1]]),
                      ((Partition([[0, 1]]), Partition([[0], [1]])),))
    assert is_martingale(sp, filt, X)
    assert martingale_violation(sp, filt, X) is None
    Y = Process.from_scalar_paths([[0, 1], [0, 0]])
    where = martingale_violation(sp, filt, Y)
    assert where == (1, frozenset({0, 1}), 0)


@given(st.integers(min_value=0, max_value=300))
def test_compensator_centers_the_process(seed):
    rng, sp, filt = draw(seed, "comp")
    A = random_adapted(rng, sp, filt, dim=rng.choice((1, 2)))
    C = compensator(sp, filt, A)
    assert is_predictable(filt, C)
    assert all(C.at(i, 0) == (ZERO,) * C.dim for i in range(sp.n))
    assert is_martingale(sp, filt, A - C)


@given(st.integers(min_value=0, max_value=300))
def test_canonical_decomposition(seed):
    rng, sp, filt = draw(seed, "dec")
    X = random_adapted(rng, sp, filt)
    dec = canonical_decomposition(sp, filt, X)
    assert is_martingale(sp, filt, dec.martingale_part)
    assert is_predictable(filt, dec.drift_part)
    assert dec.start + dec.martingale_part + dec.drift_part == X


@given(st.integers(min_value=0, max_value=300))
def test_integration_by_parts(seed):
    rng, sp, filt = draw(seed, "ibp")
    X = random_adapted(rng, sp, filt)
    Y = random_adapted(rng, sp, filt)
    lhs = pointwise_mul(X, Y)
    rhs = (stoch_integral(filt, shift(X), Y)
           + stoch_integral(filt, shift(Y), X)
           + bracket(X, Y))
    for i in range(sp.n):
        x0y0 = lhs.at(i, 0)[0]
        for k in range(filt.K + 1):
            assert lhs.at(i, k)[0] == x0y0 + rhs.at(i, k)[0]


@given(st.integers(min_value=0, max_value=300))
def test_compensated_bracket_is_a_martingale(seed):
    rng, sp, filt = draw(seed, "cb")
    X = random_martingale(rng, sp, filt)
    Y = random_martingale(rng, sp, filt)
    B = bracket(X, Y)
    assert is_martingale(sp, filt, B - comp_bracket(sp, filt, X, Y))


@given(st.integers(min_value=0, max_value=300))
def test_integral_against_martingale_is_martingale(seed):
    rng, sp, filt = draw(seed, "im")
    X = random_martingale(rng, sp, filt)
    H = shift(random_adapted(rng, sp, filt))
    assert is_martingale(sp, filt, stoch_integral(filt, H, X))


def test_doleans_golden():
    X = Process.from_scalar_paths([[0, Q(1, 2), Q(1, 4)]])
    Z = doleans_exp(X)
    assert Z.at(0, 0) == (ONE,)
    assert Z.at(0, 1) == (Q(3, 2),)
    assert Z.at(0, 2) == (Q(9, 8),)


@given(st.integers(min_value=0, max_value=300))
def test_doleans_product_rule(seed):
    rng, sp, filt = draw(seed, "yor")
    X = random_adapted(rng, sp, filt)
    Y = random_adapted(rng, sp, filt)
    lhs = pointwise_mul(doleans_exp(X), doleans_exp(Y))
    rhs = doleans_exp(X + Y + bracket(X, Y))
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=300))
def test_stopped_martingale_stays_martingale(seed):
    rng, sp, filt = draw(seed, "stopm")
    X = random_martingale(rng, sp, filt)
    T = random_stopping_time(rng, sp, filt)
    assert is_martingale(sp, filt, stop(X, T))


def test_stop_freezes_paths():
    X = Process.from_scalar_paths([[0, 1, 5], [0, 2, 7]])
    T = StoppingTime((1, 2))
    Y = stop(X, T)
    assert Y.at(0, 2) == (Q(1),)
    assert Y.at(1, 2) == (Q(7),)


# Per-outcome references: the conditional increment summed over every
# outcome of an atom, and the compensator as a per-component cond_expect.

def reference_martingale_violation(space, filt, X, horizon=None):
    if not is_adapted(filt, X):
        raise NotAdapted()
    for k in range(1, filt.K + 1):
        for b in filt.pre(k).blocks:
            if horizon is not None and not horizon.alive_block(b, k):
                continue
            for c in range(X.dim):
                tot = sum((space.prob[i] * X.jump(i, k)[c] for i in b), ZERO)
                if tot / space.mass(b) != ZERO:
                    return (k, b, c)
    return None


def reference_compensator(space, filt, A):
    if not is_adapted(filt, A):
        raise NotAdapted()
    means = {(k, c): cond_expect(space, filt.pre(k), [A.jump(i, k)[c] for i in range(A.n)])
             for k in range(1, filt.K + 1) for c in range(A.dim)}
    return Process.from_jumps(A.n, filt.K,
                              lambda i, k: tuple(means[(k, c)][i] for c in range(A.dim)),
                              dim=A.dim)


def partly_centred(rng, sp, filt, dim, share):
    """Adapted process whose jumps are centred on a `share` of the (tick, atom, component)s."""
    jump_of = {}
    for k in range(1, filt.K + 1):
        for b in filt.pre(k).blocks:
            kids = [c for c in filt.at(k).blocks if c <= b]
            p = [sp.mass(c) / sp.mass(b) for c in kids]
            cols = []
            for _ in range(dim):
                raw = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in kids]
                if rng.random() < share:
                    mean = sum((ph * r for ph, r in zip(p, raw)), ZERO)
                    raw = [r - mean for r in raw]
                cols.append(raw)
            for h, kid in enumerate(kids):
                jump_of[(k, kid)] = tuple(col[h] for col in cols)
    start = {b: tuple(Q(rng.randint(-3, 3)) for _ in range(dim)) for b in filt.initial.blocks}
    return Process.from_jumps(sp.n, filt.K, lambda i, k: jump_of[(k, filt.at(k).block_of(i))],
                              start=lambda i: start[filt.initial.block_of(i)], dim=dim)


def unadapted(rng, X, filt):
    """X bumped on one outcome of a tick atom with several outcomes, if there is one."""
    spots = [(min(c), k) for k in range(1, filt.K + 1) for c in filt.at(k).blocks if len(c) > 1]
    if not spots:
        return X
    i, k = rng.choice(spots)
    rows = [list(row) for row in X.values]
    rows[i][k] = tuple(x + ONE for x in rows[i][k])
    return Process(X.dim, rows)


def result_or_refusal(fn, *args):
    try:
        return fn(*args)
    except NotAdapted:
        return NotAdapted


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2000))
def test_atom_wise_calculus_matches_the_per_outcome_reference(seed):
    rng, sp, filt = draw(seed, "atomwise")
    X = partly_centred(rng, sp, filt, rng.choice((1, 2)), rng.choice((0.0, 0.8, 0.95, 1.0)))
    if rng.random() < 0.2:
        X = unadapted(rng, X, filt)
    horizon = random_stopping_time(rng, sp, filt) if rng.random() < 0.5 else None
    assert result_or_refusal(martingale_violation, sp, filt, X, horizon) == \
        result_or_refusal(reference_martingale_violation, sp, filt, X, horizon)
    assert result_or_refusal(compensator, sp, filt, X) == \
        result_or_refusal(reference_compensator, sp, filt, X)


# jump_mean and Process.jump against the plain formulas they replace
# (test_rational holds rational._dot, their kernel, to the Fraction sum).

def fields(x):
    return (type(x), x.numerator, x.denominator)


rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 12))


@given(st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(rationals, st.lists(rationals, min_size=dim, max_size=dim).map(tuple)),
    max_size=8)))
def test_jump_mean_is_the_per_component_sum_of_products(children):
    weights = [w for w, _ in children]
    jumps = [j for _, j in children]
    want = tuple(sum(map(operator.mul, weights, col), ZERO) for col in zip(*jumps))
    got = jump_mean(weights, jumps)
    assert type(got) is tuple
    assert [fields(x) for x in got] == [fields(x) for x in want]


@given(st.integers(min_value=0, max_value=300))
def test_process_jump_is_the_componentwise_difference(seed):
    rng, sp, filt = draw(seed, "jump")
    for dim in (1, 2):
        X = random_adapted(rng, sp, filt, dim=dim)
        for i in range(X.n):
            assert X.jump(i, 0) == (ZERO,) * dim
            for k in range(1, X.ticks + 1):
                want = tuple(c - p for c, p in zip(X.at(i, k), X.at(i, k - 1)))
                got = X.jump(i, k)
                assert type(got) is tuple
                assert [fields(x) for x in got] == [fields(x) for x in want]
