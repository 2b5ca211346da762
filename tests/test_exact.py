"""Exact-arithmetic substrate: factorials, signed square roots, floats."""

import math
import pickle
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from misiolek.exact import SignedSqrtRational, factorial, sqrt_to_float, ssr_mul, ssr_to_float
from misiolek.wigner import threej_lm

SSR = SignedSqrtRational

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
small_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def iterative_factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == iterative_factorial(20) == 2432902008176640000


def test_factorial_ratio_property():
    for n in range(1, 201):
        assert factorial(n) % factorial(n - 1) == 0
        assert factorial(n) // factorial(n - 1) == n


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_ssr_mul_examples():
    assert ssr_mul(SSR.of(1, Fraction(1, 2)), SSR.of(1, 2)) == SSR.of(1, 1)
    assert ssr_mul(SSR.of(-1, 3), SSR.of(1, 3)) == SSR.of(-1, 9)
    assert ssr_mul(SSR.zero(), SSR.of(1, 7)) == SSR.zero()


def test_ssr_to_float_examples():
    assert ssr_to_float(SSR.of(1, 4)) == 2.0
    # high-precision evaluation oracle: -Decimal(5).sqrt() rounded to double
    assert ssr_to_float(SSR.of(-1, 5)) == -2.23606797749979
    assert ssr_to_float(SSR.zero()) == 0.0


def test_ssr_zero_normalization():
    assert SSR.of(0, 0) == SSR.zero()
    assert SSR.of(1, 0) == SSR.zero()
    with pytest.raises(ValueError):
        SSR(1, Fraction(0))
    with pytest.raises(ValueError):
        SSR(1, Fraction(-1))
    with pytest.raises(ValueError):
        SSR(2, Fraction(1))


def test_ssr_from_rational_and_square():
    v = SSR.from_rational(Fraction(-3, 7))
    assert v.sign == -1 and v.radicand == Fraction(9, 49)
    assert v.square() == Fraction(9, 49)
    assert SSR.from_rational(2) * SSR.from_rational(3) == SSR.from_rational(6)


def test_ssr_ordering():
    values = [SSR.of(-1, 9), SSR.of(-1, 1), SSR.zero(), SSR.of(1, Fraction(1, 4)), SSR.of(1, 2)]
    assert sorted(values) == values
    assert SSR.of(-1, 9) < SSR.of(-1, 1)


def test_ssr_is_immutable():
    # lru_cache hands the same value object to every caller of threej_lm.
    cached = threej_lm(3, 2, 1, 1, -1, 0)
    assert cached is threej_lm(3, 2, 1, 1, -1, 0)
    before = (cached.sign, cached.num, cached.den)
    for name in ("sign", "num", "den", "radicand", "extra"):
        with pytest.raises(AttributeError):
            setattr(cached, name, 1)
    with pytest.raises(AttributeError):
        del cached.num
    assert (cached.sign, cached.num, cached.den) == before
    assert pickle.loads(pickle.dumps(cached)) == cached


def test_sqrt_to_float_huge_operands():
    # numerator and denominator both overflow doubles; the quotient does not
    big = Fraction(factorial(200), factorial(198)) ** 10  # (200*199)**10
    assert sqrt_to_float(big) == pytest.approx((200 * 199) ** 5, rel=1e-15)


def test_sqrt_to_float_overflow_is_flagged():
    with pytest.raises(OverflowError):
        sqrt_to_float(Fraction(10) ** 700)


def fraction_sqrt_to_float(value):
    """Reference: the same 120-bit isqrt, rounded through a reduced Fraction."""
    p, q = value.numerator, value.denominator
    if p == 0:
        return 0.0
    n = p * q
    shift = max(0, 240 - n.bit_length())
    shift += shift % 2
    root = math.isqrt(n << shift)
    half = shift // 2
    return float(Fraction(root, q << half))


@given(st.integers(min_value=0, max_value=2**2200), st.integers(min_value=1, max_value=2**2200))
@example(10**700, 1)
@example(1, 2**2200)
@example(2**2047, 1)
def test_sqrt_to_float_bits_match_fraction_reference(p, q):
    value = Fraction(p, q)
    try:
        want = fraction_sqrt_to_float(value)
    except OverflowError:
        with pytest.raises(OverflowError):
            sqrt_to_float(value)
        with pytest.raises(OverflowError):
            SSR.of(1, value).to_float()
        return
    assert sqrt_to_float(value).hex() == want.hex()
    assert SSR.of(1, value).to_float().hex() == want.hex()
    assert SSR.of(-1, value).to_float().hex() == (-want if p else 0.0).hex()


def _ulps_apart(a, b):
    if a == b:
        return 0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@given(st.sampled_from([-1, 1]), rationals)
def test_mul_square_float_consistency(sign, radicand):
    a = SSR.of(sign, abs(radicand))
    left = ssr_to_float(ssr_mul(a, a))
    right = float(a.square())
    assert _ulps_apart(left, right) <= 4


@given(small_rationals, small_rationals, small_rationals)
def test_rational_field_properties(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(st.sampled_from([-1, 0, 1]), rationals, st.sampled_from([-1, 0, 1]), rationals)
def test_ssr_product_contract(s1, r1, s2, r2):
    a = SSR.of(s1, abs(r1))
    b = SSR.of(s2, abs(r2))
    prod = ssr_mul(a, b)
    assert prod.sign == a.sign * b.sign
    if prod.sign != 0:
        assert prod.radicand == a.radicand * b.radicand
    assert prod.den > 0 and math.gcd(prod.num, prod.den) == 1


def test_sqrt_to_float_matches_decimal_oracle():
    getcontext().prec = 60
    for value in (Fraction(2), Fraction(1, 3), Fraction(22680), Fraction(3, 4),
                  Fraction(10**30, 7), Fraction(1, 10**25)):
        want = float(Decimal(value.numerator).sqrt() / Decimal(value.denominator).sqrt())
        got = sqrt_to_float(value)
        assert _ulps_apart(got, want) <= 2
