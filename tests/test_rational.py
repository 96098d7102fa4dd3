import copy
import operator
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.rational import ONE, ZERO, Q, Rational, _dot, rat, rat_str

MODULUS = sys.hash_info.modulus

# (numerator, denominator) pairs, any sign; some denominators are multiples
# of the hash modulus, where the numeric hash has no modular inverse.
pairs = st.tuples(
    st.integers(),
    st.one_of(st.integers(min_value=1), st.integers(max_value=-1),
              st.sampled_from([MODULUS, -MODULUS, 3 * MODULUS])))
small_pairs = st.tuples(st.integers(-40, 40), st.integers(-12, 12).filter(bool))
# An operand: a rational (as a pair), an int or a bool.
operands = st.one_of(pairs, small_pairs, st.integers(), st.integers(-3, 3), st.booleans())

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


def as_rational(x):
    return Rational(*x) if isinstance(x, tuple) else x


def as_fraction(x):
    return Fraction(*x) if isinstance(x, tuple) else x


def fields(x):
    """A value's kind and exact fields, so a Rational and a Fraction compare."""
    if isinstance(x, (Rational, Fraction)):
        return ("rational", type(x.numerator), x.numerator, type(x.denominator), x.denominator)
    return (type(x), x)


def outcome(fn, *args):
    try:
        return fields(fn(*args))
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


def test_parse_and_format():
    assert rat("3/4") == Q(3, 4)
    assert rat("-7/2") == Q(-7, 2)
    assert rat("5") == Q(5)
    assert rat(5) == Q(5)
    assert rat(" 6/8 ") == Q(3, 4)
    assert rat_str(Q(3, 4)) == "3/4"
    assert rat_str(Q(-7, 2)) == "-7/2"
    assert rat_str(Q(5)) == "5/1"
    assert rat_str(ZERO) == "0/1"


@pytest.mark.parametrize("text", ["1_000/3", "٣/4", "3/-4", "+3", "3 / 4", "3/", "/4",
                                  "0x10", "1.5", "", "abc", "3/4/5"])
def test_rat_rejects_other_forms(text):
    with pytest.raises(ValueError, match="ASCII digits"):
        rat(text)


def test_rat_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        rat("1/0")


def test_exactness():
    third = Q(1, 3)
    assert third + third + third == ONE
    assert Q(1, 10) + Q(2, 10) == Q(3, 10)


@given(st.fractions())
def test_string_round_trip(f: Fraction):
    q = Q(f.numerator, f.denominator)
    assert rat(rat_str(q)) == q


@given(pairs)
def test_construction_matches_fraction(p):
    q, f = Rational(*p), Fraction(*p)
    assert fields(q) == fields(f)
    assert str(q) == str(f)
    assert hash(q) == hash(f)
    assert q == f and f == q


@given(st.integers(-10**6, 10**6))
def test_construction_rejects_what_is_not_a_pair_of_ints(n):
    with pytest.raises(ZeroDivisionError):
        Rational(n, 0)
    for bad in (n + 0.5, str(n), Fraction(n, 3), Rational(n, 3)):
        with pytest.raises(TypeError):
            Rational(bad)
    assert fields(Rational(True, n or 1)) == fields(Fraction(True, n or 1))


@given(operands, operands)
def test_arithmetic_matches_fraction(a, b):
    if not (isinstance(a, tuple) or isinstance(b, tuple)):
        a = (a, 1)
    for op in ARITHMETIC:
        assert outcome(op, as_rational(a), as_rational(b)) == \
            outcome(op, as_fraction(a), as_fraction(b)), op.__name__
    for op in COMPARISONS:
        assert op(as_rational(a), as_rational(b)) == op(as_fraction(a), as_fraction(b)), \
            op.__name__


@given(st.integers(), st.integers(), st.sampled_from([1, 2, 6, 12, MODULUS, 3 * MODULUS]))
def test_shared_denominators_and_zero_operands_match_fraction(m, n, d):
    """The operators' shortcuts: a zero operand, and two equal denominators."""
    for a, b in (((m, d), (n, d)), ((0, 1), (n, d)), ((m, d), (0, 1)), ((0, 1), (0, 1))):
        for op in ARITHMETIC:
            assert outcome(op, Rational(*a), Rational(*b)) == \
                outcome(op, Fraction(*a), Fraction(*b)), op.__name__


# A dot product's terms: zero rationals, ints and bools among the operands.
terms = st.tuples(st.one_of(operands, st.just((0, 1))), st.one_of(operands, st.just((0, 1))))


@given(st.one_of(st.lists(terms, max_size=8), st.lists(terms, min_size=40, max_size=120)))
def test_dot_matches_the_fraction_sum_of_products(products):
    xs = [x for x, _ in products]
    ys = [y for _, y in products]
    got = _dot([as_rational(x) for x in xs], [as_rational(y) for y in ys])
    want = sum(map(operator.mul, map(as_fraction, xs), map(as_fraction, ys)), Fraction(0))
    assert type(got) is Rational
    assert fields(got) == fields(want)


@given(pairs, pairs)
def test_comparisons_with_fraction_on_either_side(a, b):
    for op in COMPARISONS:
        want = op(Fraction(*a), Fraction(*b))
        assert op(Rational(*a), Fraction(*b)) == want, op.__name__
        assert op(Fraction(*a), Rational(*b)) == want, op.__name__


@given(pairs, st.integers(-6, 6))
def test_unary_operations_and_powers_match_fraction(p, e):
    q, f = Rational(*p), Fraction(*p)
    assert fields(-q) == fields(-f)
    assert fields(abs(q)) == fields(abs(f))
    assert bool(q) is bool(f)
    assert outcome(float, q) == outcome(float, f)
    assert outcome(operator.pow, q, e) == outcome(operator.pow, f, e)
    assert outcome(operator.pow, q, e > 0) == outcome(operator.pow, f, e > 0)


def test_division_by_zero_raises():
    for zero in (0, False, Rational(0)):
        with pytest.raises(ZeroDivisionError):
            Rational(1, 2) / zero
    for x in (3, True, Rational(3)):
        with pytest.raises(ZeroDivisionError):
            x / Rational(0)
    with pytest.raises(ZeroDivisionError):
        Rational(0) ** -1
    with pytest.raises(TypeError):
        Rational(1, 2) + 0.5


@given(st.lists(st.one_of(small_pairs, st.integers(-5, 5), st.booleans()), max_size=30))
def test_sets_dicts_and_sorting_match_fraction(values):
    qs = [as_rational(v) for v in values]
    fs = [as_fraction(v) for v in values]
    assert [hash(q) for q in qs] == [hash(f) for f in fs]
    assert [fields(x) for x in set(qs)] == [fields(x) for x in set(fs)]
    assert [fields(x) for x in frozenset(qs)] == [fields(x) for x in frozenset(fs)]
    dq = {q: i for i, q in enumerate(qs)}
    df = {f: i for i, f in enumerate(fs)}
    assert [(fields(k), v) for k, v in dq.items()] == [(fields(k), v) for k, v in df.items()]
    assert [fields(x) for x in sorted(qs)] == [fields(x) for x in sorted(fs)]
    for q, f in zip(qs, fs):
        assert dq[f] == df[q]
        assert (q in set(fs)) and (f in set(qs))


def test_mixed_key_lookups():
    assert {2: "x"}[Rational(2)] == "x"
    assert {Rational(2): "x"}[2] == "x"
    assert {Rational(4, 2): "x"}[Fraction(2)] == "x"
    assert Rational(1, 2) in {Fraction(1, 2)} and Fraction(1, 2) in {Rational(1, 2)}
    assert True in {Rational(1)} and Rational(0) in {False}
    assert Rational(1, 2) not in {1, 2}


@given(st.lists(pairs, max_size=8))
def test_pickle_and_copy_round_trips(values):
    qs = [Rational(*p) for p in values]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(qs, protocol))
        assert [fields(x) for x in back] == [fields(x) for x in qs]
        assert all(type(x) is Rational for x in back)
    for clone in (copy.copy, copy.deepcopy):
        assert [fields(clone(q)) for q in qs] == [fields(q) for q in qs]
