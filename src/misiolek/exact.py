"""Exact arithmetic substrate: big rationals, factorials and signed square roots.

Every coupling coefficient handled downstream is of the form ``s*sqrt(p/q)``
with ``s`` a sign and ``p/q`` a nonnegative rational.  One value type holds
``s``, ``p`` and ``q`` as plain integers in lowest terms, so a product is
two integer multiplications and one gcd, with no Fraction on the hot path.
"""

from __future__ import annotations

import math
from math import gcd
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Union

#: Rational scalars accepted by the constructors below.
RationalLike = Union[int, Fraction]

# Arbitrary-precision rationals, always in lowest terms with positive
# denominator.  fractions.Fraction already guarantees both invariants.
BigRational = Fraction


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    """n! as an exact integer, memoized for heavy reuse by the Racah sums."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def sqrt_to_float(value: Fraction) -> float:
    """Nearest double to sqrt(value) for a nonnegative rational.

    The square root is taken on a >=120-bit integer approximation before the
    final rounding, so factorial ratios far beyond double range still convert
    correctly as long as the *result* is representable.

    Raises OverflowError if the result exceeds double range.
    """
    if value < 0:
        raise ValueError("square root of negative rational")
    return _sqrt_ratio_to_float(value.numerator, value.denominator)


def _sqrt_ratio_to_float(p: int, q: int) -> float:
    """sqrt_to_float for p/q in lowest terms with p >= 0 and q > 0."""
    if p == 0:
        return 0.0
    # sqrt(p/q) = sqrt(p*q)/q.  Shift so isqrt carries ~120 significant bits,
    # keeping the shift even so that its half divides out of the root exactly.
    n = p * q
    shift = max(0, 240 - n.bit_length())
    shift += shift % 2
    root = math.isqrt(n << shift)
    half = shift // 2
    # root / (q * 2**half), both exact integers; int / int is correctly
    # rounded even for huge operands, so no gcd is needed.
    try:
        return root / (q << half)
    except OverflowError:
        raise OverflowError(f"sqrt({Fraction(p, q)}) exceeds double range") from None


@total_ordering
class SignedSqrtRational:
    """Exact value ``sign * sqrt(num/den)`` with integers ``num >= 0``, ``den > 0``.

    The representation is canonical: ``num/den`` is in lowest terms and
    ``sign == 0`` iff ``num == 0``, so equality of the three integers is exact
    value equality.  Values are immutable, because cached results are shared
    by every caller.
    """

    __slots__ = ("sign", "num", "den")

    def __init__(self, sign: int, radicand: RationalLike) -> None:
        rad = Fraction(radicand)
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
        rad = Fraction(radicand)
        if sign == 0 or rad == 0:
            return cls.zero()
        return cls(1 if sign > 0 else -1, rad)

    @classmethod
    def zero(cls) -> "SignedSqrtRational":
        return cls._reduce(0, 0, 1)

    @classmethod
    def from_rational(cls, value: RationalLike) -> "SignedSqrtRational":
        """Embed an exact rational r as sign(r)*sqrt(r**2)."""
        v = Fraction(value)
        if v == 0:
            return cls.zero()
        return cls._reduce(1 if v > 0 else -1, v.numerator ** 2, v.denominator ** 2)

    @classmethod
    def sqrt(cls, value: RationalLike) -> "SignedSqrtRational":
        """Principal square root of a nonnegative rational."""
        v = Fraction(value)
        if v < 0:
            raise ValueError("sqrt of negative rational")
        return cls.of(1, v)

    @property
    def radicand(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.sign, self.radicand))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedSqrtRational):
            return NotImplemented
        return self.sign == other.sign and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.sign, self.num, self.den))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(sign={self.sign}, radicand={self.radicand!r})"

    def __mul__(self, other: "SignedSqrtRational") -> "SignedSqrtRational":
        return SignedSqrtRational._reduce(self.sign * other.sign, self.num * other.num, self.den * other.den)

    def __neg__(self) -> "SignedSqrtRational":
        return SignedSqrtRational._reduce(-self.sign, self.num, self.den)

    def scale(self, factor: RationalLike) -> "SignedSqrtRational":
        """Exact product with a rational scalar (folded into the radicand)."""
        return self * SignedSqrtRational.from_rational(factor)

    def square(self) -> Fraction:
        """Exact square; always the radicand thanks to the zero invariant."""
        return self.radicand

    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        return self.sign * _sqrt_ratio_to_float(self.num, self.den)

    def __lt__(self, other: "SignedSqrtRational") -> bool:
        if self.sign != other.sign:
            return self.sign < other.sign
        if self.sign >= 0:
            return self.num * other.den < other.num * self.den
        return self.num * other.den > other.num * self.den

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        return f"{prefix}sqrt({self.radicand})"


# Slot writers that bypass the refusing __setattr__; only the constructors use them.
_new = object.__new__
_set_sign = SignedSqrtRational.sign.__set__
_set_num = SignedSqrtRational.num.__set__
_set_den = SignedSqrtRational.den.__set__


def ssr_mul(a: SignedSqrtRational, b: SignedSqrtRational) -> SignedSqrtRational:
    """Exact product of two signed square roots."""
    return a * b


def ssr_to_float(a: SignedSqrtRational) -> float:
    """Nearest double to a signed square root (<= 2 ulp off)."""
    return a.to_float()
