"""Exact arithmetic substrate: big rationals, factorials, signed square roots, rounding.

Every coupling coefficient handled downstream is of the form ``s*sqrt(p/q)``
with ``s`` a sign and ``p/q`` a nonnegative rational.  One value type holds
``s``, ``p`` and ``q`` as plain integers in lowest terms, so a product is
two integer multiplications and one gcd, with no Fraction on the hot path.

``Frozen`` is the base of every immutable value type of the package, and
``to_double`` is its one way from an exact value to a float: a sum of
rational or root terms times powers of pi, correctly rounded.
"""

from __future__ import annotations

import math
from math import gcd
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, List, Sequence, Tuple, Union

#: Rational scalars accepted by the constructors below.
RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    """n! as an exact integer, memoized for heavy reuse by the Racah sums."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


#: An exact term ``(sign, num, den, root, pi_exp)``, the value
#: ``sign * (num/den)**(1/2 if root else 1) * pi**pi_exp`` with integers
#: ``num, den > 0`` and ``pi_exp`` in {-1, -1/2, 0, 1}: the CLI prints a
#: value's terms as its "exact" field.
Term = Tuple[int, int, int, bool, Union[int, float]]


@lru_cache(maxsize=None)
def _pi_bracket(bits: int, pi_exp: Union[int, float] = 1) -> Tuple[int, int]:
    """Integers (lo, hi), hi - lo <= 3, with lo <= pi**pi_exp * 2**bits <= hi.

    ``pi_exp`` is one of -1, -1/2, 0 and 1.  pi is Machin's
    pi = 16 atan(1/5) - 4 atan(1/239) in fixed point with guard bits.  Every
    series term is floored, so each arctangent is off by less than one unit
    per term plus one for the dropped tail, and the bracket widens the sum
    by that bound.  1/pi is 2**(2 bits) over the bracket of pi, and pi**-1/2
    the root of 1/pi 2**(2 bits).
    """
    if not pi_exp:
        return 1 << bits, 1 << bits
    if pi_exp != 1:
        lo, hi = _pi_bracket(bits)
        lo, hi = (1 << 2 * bits) // hi, -(-(1 << 2 * bits) // lo)
        return (lo, hi) if pi_exp == -1 else (math.isqrt(lo << bits), math.isqrt((hi << bits) - 1) + 1)
    scale = bits + bits.bit_length() + 8
    one = 1 << scale

    def atan_inverse(x: int) -> Tuple[int, int]:
        """(floor-summed atan(1/x) * 2**scale, its error bound in units)."""
        total, power, k = 0, one // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            power //= x * x
            k += 1
        return total, k + 1

    a5, e5 = atan_inverse(5)
    a239, e239 = atan_inverse(239)
    approx, error = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    guard = scale - bits
    return (approx - error) >> guard, -((-(approx + error)) >> guard)


def _nearest(num: int, den: int) -> float:
    """num / den rounded once (den > 0); an infinity if it leaves double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def to_double(terms: Sequence[Term]) -> float:
    """The double nearest the sum of ``terms``; OverflowError if it leaves double range.

    No two terms may share a power of pi; no terms at all is zero (0.0).  A
    lone rational term is divided once.  Otherwise each term's rational
    part (num/den, or its root) times 2**frac lies between an integer q and
    q + 1, and is q when the division and the root are exact; its power of
    pi times 2**bits lies between the ends of ``_pi_bracket``, so the
    term times 2**(frac + bits) lies between their products.  ``frac``
    gives the largest rational part at least ``bits`` bits.  Rounding is
    monotone, so once both ends of the summed bounds round alike, that
    double is the value's.  The bounds of a rational value close on it, and
    are exact once it is a multiple of 2**-frac, as a midpoint of two
    doubles is; any other nonzero value is irrational (pi is
    transcendental), so doubling ``bits`` ends the loop.
    """
    if not terms:
        return 0.0
    if len(terms) == 1 and not terms[0][3] and not terms[0][4]:
        return terms[0][0] * terms[0][1] / terms[0][2]
    # A rational part of about 2**-k takes k extra bits; the largest decides.
    extra = None
    for _, num, den, root, _ in terms:
        k = max((den.bit_length() - num.bit_length()) // (2 if root else 1), 0)
        extra = k if extra is None else min(extra, k)
    bits = 64
    while True:
        frac = bits + extra
        low = high = 0
        for sign, num, den, root, pi_exp in terms:
            if root:
                square, inexact = divmod(num << 2 * frac, den)
                q = math.isqrt(square)
                inexact = inexact or q * q != square
            else:
                q, inexact = divmod(num << frac, den)
            pi_low, pi_high = _pi_bracket(bits, pi_exp)
            below, above = q * pi_low, (q + 1 if inexact else q) * pi_high
            if sign > 0:
                low, high = low + below, high + above
            else:
                low, high = low - above, high - below
        unit = 1 << (frac + bits)
        first, last = _nearest(low, unit), _nearest(high, unit)
        # A zero end has the sign of its bound: the ends agree in sign too.
        if first == last and (first or (low < 0) == (high < 0)):
            if math.isinf(first):
                raise OverflowError("the value exceeds double range")
            return first
        bits *= 2


class Frozen:
    """Base of the immutable value types: the one place value semantics live.

    A subclass declares its ``__slots__``, the two or more ``_fields`` among
    them that make up its value, and an ``__init__`` that writes each slot
    through ``self._writers``, the slot descriptors' setters in slot order
    (plain assignment is refused).  ``_key`` reads the field tuple off a
    value: values of the same type are equal when their field tuples are,
    the hash is that of the tuple, the repr is ``Name(field=value, ...)`` and
    a pickle rebuilds from the tuple.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _writers: Tuple[Callable[[object, object], None], ...] = ()
    _key: Callable[[object], tuple]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._writers = tuple(getattr(cls, name).__set__ for name in cls.__dict__.get("__slots__", ()))
        # The field tuple in one C call (attrgetter of two or more names returns
        # a tuple); an attrgetter is no descriptor, so self._key is this object.
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._key(self))


def _rational(value: RationalLike) -> Fraction:
    """``value`` as a Fraction; TypeError unless it is an int or a Fraction."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"an exact rational must be an int or a Fraction, got {type(value).__name__}")
    return Fraction(value)


class SignedSqrtRational(Frozen):
    """Exact value ``sign * sqrt(num/den)`` with integers ``num >= 0``, ``den > 0``.

    The representation is canonical: ``num/den`` is in lowest terms and
    ``sign == 0`` iff ``num == 0``, so equality of the three integers is exact
    value equality.  Values are immutable, because cached results are shared
    by every caller; equality and hash are ``Frozen``'s on the three integers,
    while repr and pickling are in terms of the radicand.  Rational arguments
    must be an ``int`` or a ``Fraction``: a float is not an exact value.
    """

    __slots__ = _fields = ("sign", "num", "den")

    def __init__(self, sign: int, radicand: RationalLike) -> None:
        rad = _rational(radicand)
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        if rad < 0:
            raise ValueError(f"radicand must be nonnegative, got {rad}")
        if (sign == 0) != (rad == 0):
            raise ValueError("sign is zero exactly when the radicand is zero")
        _set_sign(self, sign)
        _set_num(self, rad.numerator)
        _set_den(self, rad.denominator)

    @classmethod
    def _reduce(cls, sign: int, num: int, den: int) -> "SignedSqrtRational":
        """Unchecked constructor: reduces ``num/den`` with one gcd.

        The caller guarantees ``num >= 0``, ``den > 0`` and ``sign`` in
        {-1, 0, 1}, zero exactly when ``num`` is.
        """
        g = gcd(num, den)
        value = _new(cls)
        _set_sign(value, sign)
        _set_num(value, num // g)
        _set_den(value, den // g)
        return value

    @classmethod
    def of(cls, sign: int, radicand: RationalLike) -> "SignedSqrtRational":
        """Normalizing constructor: collapses any zero to the canonical zero."""
        rad = _rational(radicand)
        if sign == 0 or rad == 0:
            return cls.zero()
        return cls(1 if sign > 0 else -1, rad)

    @classmethod
    def zero(cls) -> "SignedSqrtRational":
        return cls._reduce(0, 0, 1)

    @property
    def radicand(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __reduce__(self):
        return (type(self), (self.sign, self.radicand))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(sign={self.sign}, radicand={self.radicand!r})"

    def __mul__(self, other: "SignedSqrtRational") -> "SignedSqrtRational":
        return SignedSqrtRational._reduce(self.sign * other.sign, self.num * other.num, self.den * other.den)

    def __neg__(self) -> "SignedSqrtRational":
        return SignedSqrtRational._reduce(-self.sign, self.num, self.den)

    def scale(self, factor: RationalLike) -> "SignedSqrtRational":
        """Exact product with a rational scalar c, folded into the radicand as c**2."""
        c = _rational(factor)
        p = c.numerator
        return SignedSqrtRational._reduce(self.sign * ((p > 0) - (p < 0)), self.num * p * p,
                                          self.den * c.denominator ** 2)

    def is_zero(self) -> bool:
        return self.sign == 0

    def terms(self, pi_exp: Union[int, float] = 0) -> List[Term]:
        """The value times pi**pi_exp as its nonzero terms: one, or none for zero."""
        return [(self.sign, self.num, self.den, True, pi_exp)] if self.sign else []

    def to_float(self) -> float:
        return to_double(self.terms())


# Slot writers that bypass the refusing __setattr__; only the constructors use them.
_new = object.__new__
_set_sign, _set_num, _set_den = SignedSqrtRational._writers

