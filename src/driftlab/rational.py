"""Exact rational arithmetic.

`Rational` is an exact rational held in lowest terms, with fast paths for
the operations the engine uses on two rationals or on a rational and an
int.  Addition, subtraction and multiplication compute in the operator's
own frame, with no helper call.  It is the engine's only number type:
every number in the engine is a `Q`, the name the engine uses for it.

Sums of products (dot products, conditional jump means) go through
`_dot`, which adds the unreduced products over the running lcm of their
denominators and reduces the total once.

`Rational` equals, hashes and orders exactly as `fractions.Fraction` does
on the same value, and so as an int on an integral value: sets and dicts
that mix ints and rationals hold the same keys, in the same order, as
they would with `Fraction`.  It mixes with ints (and bools) in
arithmetic, and with any `numbers.Rational` in comparisons.  It does not
mix with floats.
"""

from __future__ import annotations

import numbers
import re
import sys
from math import gcd

from .errors import RationalTooLong


class Rational:
    """The exact rational numerator/denominator, in lowest terms.

    The denominator is positive and shares no factor with the numerator,
    so equal values have equal fields.  Instances are immutable by
    convention: no operation writes a field after construction.
    """

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator=0, denominator=1):
        """Rational(n, d) for ints n and d != 0; TypeError on anything else."""
        if denominator == 0:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        g = gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        self = _new(cls)
        self.numerator = numerator // g
        self.denominator = denominator // g
        return self

    def __reduce__(self):
        return (Rational, (self.numerator, self.denominator))

    def __repr__(self):
        return f"Rational({self.numerator}, {self.denominator})"

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"

    def __hash__(self):
        # The numeric hash of n/d (as `Fraction.__hash__` computes it), so
        # it equals hash(n) when d == 1.
        n, d = self.numerator, self.denominator
        if d == 1:
            return hash(n)
        try:
            dinv = pow(d, -1, _HASH_MODULUS)
        except ValueError:  # d is a multiple of the modulus
            h = _HASH_INF
        else:
            h = hash(hash(abs(n)) * dinv)
        if n < 0:
            h = -h
        return -2 if h == -1 else h

    def __eq__(a, b):
        if type(b) is Rational:
            return a.numerator == b.numerator and a.denominator == b.denominator
        if isinstance(b, int):
            return a.denominator == 1 and a.numerator == b
        return NotImplemented

    def __lt__(a, b):
        if type(b) is Rational:
            return a.numerator * b.denominator < b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator < b * a.denominator
        return NotImplemented

    def __le__(a, b):
        if type(b) is Rational:
            return a.numerator * b.denominator <= b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator <= b * a.denominator
        return NotImplemented

    def __gt__(a, b):
        if type(b) is Rational:
            return a.numerator * b.denominator > b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator > b * a.denominator
        return NotImplemented

    def __ge__(a, b):
        if type(b) is Rational:
            return a.numerator * b.denominator >= b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator >= b * a.denominator
        return NotImplemented

    def __bool__(a):
        return a.numerator != 0

    def __float__(a):
        return a.numerator / a.denominator

    def __neg__(a):
        return _make(-a.numerator, a.denominator)

    def __abs__(a):
        return a if a.numerator >= 0 else _make(-a.numerator, a.denominator)

    # __add__, __sub__ and __mul__ compute in their own frame, with no helper
    # call: they are the engine's hottest calls, and a second Python frame
    # was a large share of each one's cost.

    def __add__(a, b):
        if type(b) is Rational:
            # Henrici: with g = gcd(da, db), the numerator t = na*(db/g) +
            # nb*(da/g) can share a factor with the denominator only through
            # g, so one gcd of t with g reduces the sum.
            na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
            if not nb:
                return a
            if not na:
                return b
            q = _new(Rational)
            if da == db:
                t = na + nb
                g = gcd(t, da)
                q.numerator = t // g
                q.denominator = da // g
                return q
            g = gcd(da, db)
            if g == 1:
                q.numerator = na * db + da * nb
                q.denominator = da * db
                return q
            s = da // g
            t = na * (db // g) + nb * s
            g2 = gcd(t, g)
            if g2 == 1:
                q.numerator = t
                q.denominator = s * db
            else:
                q.numerator = t // g2
                q.denominator = s * (db // g2)
            return q
        if isinstance(b, int):
            return _make(a.numerator + b * a.denominator, a.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is Rational:
            # Henrici, as in __add__, with nb negated.
            na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
            if not nb:
                return a
            q = _new(Rational)
            if not na:
                q.numerator = -nb
                q.denominator = db
                return q
            if da == db:
                t = na - nb
                g = gcd(t, da)
                q.numerator = t // g
                q.denominator = da // g
                return q
            g = gcd(da, db)
            if g == 1:
                q.numerator = na * db - da * nb
                q.denominator = da * db
                return q
            s = da // g
            t = na * (db // g) - nb * s
            g2 = gcd(t, g)
            if g2 == 1:
                q.numerator = t
                q.denominator = s * db
            else:
                q.numerator = t // g2
                q.denominator = s * (db // g2)
            return q
        if isinstance(b, int):
            return _make(a.numerator - b * a.denominator, a.denominator)
        return NotImplemented

    def __rsub__(a, b):
        if isinstance(b, int):
            return _make(b * a.denominator - a.numerator, a.denominator)
        return NotImplemented

    def __mul__(a, b):
        if type(b) is Rational:
            # Cross-cancelling na with db and nb with da leaves the product
            # in lowest terms; both denominators are positive.
            na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
            if not na:
                return a
            if not nb:
                return b
            g = gcd(na, db)
            if g > 1:
                na //= g
                db //= g
            g = gcd(nb, da)
            if g > 1:
                nb //= g
                da //= g
            q = _new(Rational)
            q.numerator = na * nb
            q.denominator = da * db
            return q
        if isinstance(b, int):
            g = gcd(b, a.denominator)
            return _make(a.numerator * (b // g), a.denominator // g)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is Rational:
            if not b.numerator:
                raise ZeroDivisionError("division by zero")
            return _mul(a.numerator, a.denominator, b.denominator, b.numerator)
        if isinstance(b, int):
            if not b:
                raise ZeroDivisionError("division by zero")
            return _mul(a.numerator, a.denominator, 1, b)
        return NotImplemented

    def __rtruediv__(a, b):
        if isinstance(b, int):
            if not a.numerator:
                raise ZeroDivisionError("division by zero")
            return _mul(b, 1, a.denominator, a.numerator)
        return NotImplemented

    def __pow__(a, b):
        if not isinstance(b, int):
            return NotImplemented
        n, d = a.numerator, a.denominator
        if b < 0:
            if not n:
                raise ZeroDivisionError("division by zero")
            n, d, b = d, n, -b
            if d < 0:
                n, d = -n, -d
        return _make(n ** b, d ** b)


# Registered so that `Fraction`'s comparisons accept a Rational.  They also
# answer `Rational == Fraction` and `Rational < Fraction`, which the methods
# above decline with NotImplemented.
numbers.Rational.register(Rational)

_new = object.__new__
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _make(n: int, d: int) -> Rational:
    """The Rational n/d for coprime ints n and d > 0, without reducing."""
    q = _new(Rational)
    q.numerator = n
    q.denominator = d
    return q


def _mul(na: int, da: int, nb: int, db: int) -> Rational:
    """(na/da) * (nb/db) for coprime pairs (na, da) and (nb, db), da > 0, db != 0.

    Cross-cancelling na with db and nb with da leaves a product in lowest
    terms; only the sign of db may need moving to the numerator.
    """
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    q = _new(Rational)
    if db < 0:
        q.numerator = -na * nb
        q.denominator = -da * db
    else:
        q.numerator = na * nb
        q.denominator = da * db
    return q


def _dot(xs, ys) -> Rational:
    """sum(x * y for x, y in zip(xs, ys)) for rationals, ints and bools, reduced once.

    The products are added unreduced into one fraction over the running
    lcm of their denominators, zero products are skipped, and only the
    total is brought to lowest terms: one gcd per term and one at the end,
    where adding reduced products costs up to four per term.
    """
    n, d = 0, 1
    for x, y in zip(xs, ys):
        xn = x.numerator
        if not xn:
            continue
        yn = y.numerator
        if not yn:
            continue
        pd = x.denominator * y.denominator
        if pd == d:
            n += xn * yn
            continue
        g = gcd(d, pd)
        if g == 1:
            n = n * pd + xn * yn * d
            d *= pd
        else:
            s = pd // g
            n = n * s + xn * yn * (d // g)
            d *= s
    g = gcd(n, d)
    if g == 1:
        return _make(n, d)
    return _make(n // g, d // g)


Q = Rational
ZERO = Q(0)
ONE = Q(1)

_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rat(text) -> "Q":
    """Parse a rational from an int or a 'p/q' / 'p' string.

    The string form is what `rat_str` writes: an optional '-', ASCII
    digits, and optionally '/' and more ASCII digits, with surrounding
    whitespace ignored.  Anything else raises ValueError, and a zero
    denominator ZeroDivisionError.
    """
    if isinstance(text, int):
        return Q(text)
    s = str(text).strip()
    if not _RATIONAL_TEXT.fullmatch(s):
        raise ValueError("not an integer or 'p/q' with ASCII digits")
    num, _, den = s.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    return Q(int(num), den)


def rat_str(x) -> str:
    """'p/q' for a rational; RationalTooLong past the interpreter's int-to-str digit limit."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # the digit limit, which stays as the interpreter sets it
        raise RationalTooLong(bits=(x.numerator.bit_length(), x.denominator.bit_length())) from None
