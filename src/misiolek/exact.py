"""Exact arithmetic substrate: big rationals, factorials and signed square roots.

Every coupling coefficient handled downstream is of the form ``s*sqrt(p/q)``
with ``s`` a sign and ``p/q`` a nonnegative rational.  One value type holds
``s``, ``p`` and ``q`` as plain integers in lowest terms, so a product is
two integer multiplications and one gcd, with no Fraction on the hot path.

``Frozen`` is the base of every immutable value type of the package.
"""

from __future__ import annotations

import math
from math import gcd
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Tuple, Union

#: Rational scalars accepted by the constructors below.
RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    """n! as an exact integer, memoized for heavy reuse by the Racah sums."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def _sqrt_ratio_to_float(p: int, q: int) -> float:
    """Nearest double to sqrt(p/q), for p/q in lowest terms with p >= 0 and q > 0.

    The square root is taken on a >=120-bit integer approximation before the
    final rounding, so factorial ratios far beyond double range still convert
    correctly as long as the *result* is representable.

    Raises OverflowError if the result exceeds double range.
    """
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


class Frozen:
    """Base of the immutable value types: the one place value semantics live.

    A subclass declares its ``__slots__``, the two or more ``_fields`` among
    them that make up its value, and an ``__init__`` that writes each slot
    through ``self._writers``, the slot descriptors' setters in slot order
    (plain assignment is refused).  ``_values`` is the field tuple: values of
    the same type are equal when their field tuples are, the hash is that of
    the tuple, the repr is ``Name(field=value, ...)`` and a pickle rebuilds
    from the tuple.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _writers: Tuple[Callable[[object, object], None], ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._writers = tuple(getattr(cls, name).__set__ for name in cls.__dict__.get("__slots__", ()))
        # The field tuple in one C call (attrgetter of two or more names returns a tuple).
        cls._values = property(attrgetter(*cls._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._values)


class SignedSqrtRational(Frozen):
    """Exact value ``sign * sqrt(num/den)`` with integers ``num >= 0``, ``den > 0``.

    The representation is canonical: ``num/den`` is in lowest terms and
    ``sign == 0`` iff ``num == 0``, so equality of the three integers is exact
    value equality.  Values are immutable, because cached results are shared
    by every caller; equality, hash, repr and pickling are its own, in terms
    of the radicand.
    """

    __slots__ = _fields = ("sign", "num", "den")

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

    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        return self.sign * _sqrt_ratio_to_float(self.num, self.den)


# Slot writers that bypass the refusing __setattr__; only the constructors use them.
_new = object.__new__
_set_sign, _set_num, _set_den = SignedSqrtRational._writers

