"""Exact rational arithmetic backend.

`Q` is gmpy2's `mpq` when gmpy2 is installed.  Without it, `Q` is
`Rational`, defined here: an exact rational held in lowest terms, with
fast paths for the operations the engine uses on two rationals or on a
rational and an int.  The backend is chosen in this module only, and a
benchmark's detail line names it as `gmpy2.mpq` or
`driftlab.rational.Rational`.  Every number in the engine is a `Q`.

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

    def __add__(a, b):
        if type(b) is Rational:
            return _add(a.numerator, a.denominator, b.numerator, b.denominator)
        if isinstance(b, int):
            return _make(a.numerator + b * a.denominator, a.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is Rational:
            return _add(a.numerator, a.denominator, -b.numerator, b.denominator)
        if isinstance(b, int):
            return _make(a.numerator - b * a.denominator, a.denominator)
        return NotImplemented

    def __rsub__(a, b):
        if isinstance(b, int):
            return _make(b * a.denominator - a.numerator, a.denominator)
        return NotImplemented

    def __mul__(a, b):
        if type(b) is Rational:
            return _mul(a.numerator, a.denominator, b.numerator, b.denominator)
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


def _add(na: int, da: int, nb: int, db: int) -> Rational:
    """na/da + nb/db for two reduced fractions (Henrici's method).

    With g = gcd(da, db), the sum's numerator t = na*(db/g) + nb*(da/g)
    can share a factor with the denominator only through g, so one gcd
    of t with g reduces it.
    """
    q = _new(Rational)
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


try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
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
    """Serialize a rational as 'p/q' (denominator always present)."""
    return f"{x.numerator}/{x.denominator}"
