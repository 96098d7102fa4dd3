import random

from hypothesis import given
from hypothesis import strategies as st

from driftlab.basis import Filtration, Partition, SampleSpace
from driftlab.calculus import is_martingale, is_predictable, stoch_integral
from driftlab.models import gen_single_filtration, random_martingale
from driftlab.rational import ZERO, Q
from driftlab.representation import build_representation, multiplicity, represent


def draw(seed):
    rng = random.Random(f"rep:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(3, 10), rng.randint(1, 3), 3)
    return rng, sp, filt


def test_width_is_max_branching():
    sp = SampleSpace(tuple("abcd"), (Q(1, 4),) * 4)
    top = Partition([[0, 1, 2, 3]])
    mid = Partition([[0, 1], [2], [3]])
    fine = Partition([[0], [1], [2], [3]])
    filt = Filtration(top, ((top, mid), (mid, fine)))
    assert multiplicity(filt) == 3
    assert build_representation(sp, filt).width == 3


def test_driver_jump_golden():
    sp = SampleSpace(("u", "d"), (Q(1, 3), Q(2, 3)))
    top = Partition([[0, 1]])
    fine = Partition([[0], [1]])
    filt = Filtration(top, ((top, fine),))
    rep = build_representation(sp, filt)
    W = rep.W
    # slot h jumps by 2^-k (indicator minus branch probability)
    assert W.jump(0, 1) == (Q(1, 2) * Q(2, 3), Q(1, 2) * Q(-2, 3))
    assert W.jump(1, 1) == (Q(1, 2) * Q(-1, 3), Q(1, 2) * Q(1, 3))


@given(st.integers(min_value=0, max_value=400))
def test_driver_components_are_martingales(seed):
    _, sp, filt = draw(seed)
    rep = build_representation(sp, filt)
    assert rep.W.dim == multiplicity(filt)
    for comp in rep.W.components():
        assert is_martingale(sp, filt, comp)


@given(st.integers(min_value=0, max_value=400))
def test_jump_size_bound(seed):
    _, sp, filt = draw(seed)
    rep = build_representation(sp, filt)
    for i in range(sp.n):
        for k in range(1, filt.K + 1):
            for v in rep.W.jump(i, k):
                assert abs(v) <= Q(1, 2)


@given(st.integers(min_value=0, max_value=400))
def test_every_martingale_is_reconstructed(seed):
    rng, sp, filt = draw(seed)
    rep = build_representation(sp, filt)
    X = random_martingale(rng, sp, filt)
    H = represent(rep, X)
    assert is_predictable(filt, H)
    back = stoch_integral(filt, H, rep.W)
    for i in range(sp.n):
        for k in range(filt.K + 1):
            assert back.at(i, k)[0] == X.scalar(i, k) - X.scalar(i, 0)


@given(st.integers(min_value=0, max_value=400))
def test_integrand_is_centered_with_dead_slots_zeroed(seed):
    rng, sp, filt = draw(seed)
    rep = build_representation(sp, filt)
    X = random_martingale(rng, sp, filt)
    H = represent(rep, X)
    for k in range(1, filt.K + 1):
        for b in filt.pre(k).blocks:
            i = min(b)
            live = range(len(filt.child_map[(k, b)]))
            vals = H.at(i, k)
            assert sum((vals[h] for h in live), ZERO) == ZERO
            for h in range(len(live), rep.width):
                assert vals[h] == ZERO
