"""Exact-arithmetic substrate: factorials, signed square roots, floats."""

import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from misiolek.exact import SignedSqrtRational, _pi_bracket, factorial, to_double

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
    assert SSR.of(1, Fraction(1, 2)) * SSR.of(1, 2) == SSR.of(1, 1)
    assert SSR.of(-1, 3) * SSR.of(1, 3) == SSR.of(-1, 9)
    assert SSR.zero() * SSR.of(1, 7) == SSR.zero()


def test_ssr_to_float_examples():
    assert SSR.of(1, 4).to_float() == 2.0
    # high-precision evaluation oracle: -Decimal(5).sqrt() rounded to double
    assert SSR.of(-1, 5).to_float() == -2.23606797749979
    assert SSR.zero().to_float() == 0.0


def test_ssr_zero_normalization():
    assert SSR.of(0, 0) == SSR.zero()
    assert SSR.of(1, 0) == SSR.zero()
    with pytest.raises(ValueError):
        SSR(1, Fraction(0))
    with pytest.raises(ValueError):
        SSR(1, Fraction(-1))
    with pytest.raises(ValueError):
        SSR(2, Fraction(1))


def test_ssr_scale_by_rational_and_square():
    one = SSR.of(1, 1)
    v = one.scale(Fraction(-3, 7))
    assert v.sign == -1 and v.radicand == Fraction(9, 49)
    assert one.scale(2) * one.scale(3) == one.scale(6)
    assert one.scale(0) == SSR.of(-1, 5).scale(0) == SSR.zero()
    assert SSR.zero().scale(Fraction(-3, 7)) == SSR.zero()


@given(st.sampled_from([-1, 0, 1]), rationals, rationals)
def test_ssr_scale_is_the_product_with_the_squared_rational(sign, radicand, c):
    a = SSR.of(sign, abs(radicand))
    got = a.scale(c)
    assert got == a * SSR.of((c > 0) - (c < 0), c * c)
    assert got.den > 0 and math.gcd(got.num, got.den) == 1 and (got.sign == 0) == (got.num == 0)


def test_ssr_rejects_inexact_rationals():
    # A binary float is no exact radicand: 0.1 would be stored as
    # 3602879701896397/36028797018963968.
    for bad in (0.1, 2.0, Decimal("0.1"), "1/3"):
        with pytest.raises(TypeError):
            SSR.of(1, bad)
        with pytest.raises(TypeError):
            SSR(1, bad)
        with pytest.raises(TypeError):
            SSR.of(1, 2).scale(bad)


def test_sqrt_to_float_huge_operands():
    # numerator and denominator both overflow doubles; the quotient does not
    big = Fraction(factorial(200), factorial(198)) ** 10  # (200*199)**10
    assert SSR.of(1, big).to_float() == pytest.approx((200 * 199) ** 5, rel=1e-15)


def test_sqrt_to_float_overflow_is_flagged():
    with pytest.raises(OverflowError):
        SSR.of(1, Fraction(10) ** 700).to_float()
    with pytest.raises(ValueError):
        SSR.of(1, Fraction(-1, 3))


def fraction_sqrt_to_float(value):
    """Reference: a 120-bit isqrt, rounded through a reduced Fraction."""
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
            SSR.of(1, value).to_float()
        return
    assert SSR.of(1, value).to_float().hex() == want.hex()
    assert SSR.of(-1, value).to_float().hex() == (-want if p else 0.0).hex()


def _ulps_apart(a, b):
    if a == b:
        return 0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@given(st.sampled_from([-1, 1]), rationals)
def test_mul_square_float_consistency(sign, radicand):
    a = SSR.of(sign, abs(radicand))
    left = (a * a).to_float()
    right = float(a.radicand)
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
    prod = a * b
    assert prod.sign == a.sign * b.sign
    if prod.sign != 0:
        assert prod.radicand == a.radicand * b.radicand
    assert prod.den > 0 and math.gcd(prod.num, prod.den) == 1


def test_sqrt_to_float_matches_decimal_oracle():
    getcontext().prec = 60
    for value in (Fraction(2), Fraction(1, 3), Fraction(22680), Fraction(3, 4),
                  Fraction(10**30, 7), Fraction(1, 10**25)):
        want = float(Decimal(value.numerator).sqrt() / Decimal(value.denominator).sqrt())
        got = SSR.of(1, value).to_float()
        assert _ulps_apart(got, want) <= 2


def mp_terms(terms):
    """The sum of exact terms at mpmath's working precision."""
    total = mpmath.mpf(0)
    for sign, num, den, root, pi_exp in terms:
        x = mpmath.mpf(num) / den
        total += sign * (mpmath.sqrt(x) if root else x) * mpmath.pi ** pi_exp
    return total


def test_to_double_is_correctly_rounded():
    # Seeded sums of one to four terms, one per power of pi, with parts of up
    # to 600 bits that may cancel, against mpmath at 3,000 bits.
    rng = random.Random(27)
    kinds = [(False, 0), (True, 0), (False, -1), (True, -0.5), (False, 1)]
    for _ in range(400):
        terms, powers = [], set()
        for root, pi_exp in rng.sample(kinds, rng.randrange(1, 5)):
            if pi_exp not in powers:
                powers.add(pi_exp)
                size = rng.choice((8, 64, 600))
                terms.append((rng.choice((-1, 1)), rng.randrange(1, 2 ** size), rng.randrange(1, 2 ** size),
                              root, pi_exp))
        with mpmath.workprec(3000):
            want = float(mp_terms(terms))
        assert to_double(terms) == want, terms


def test_to_double_edges():
    assert to_double([]) == 0.0
    # A lone rational term is one division, including its overflow.
    assert to_double([(-1, 1, 3, False, 0)]) == -1 / 3
    with pytest.raises(OverflowError):
        to_double([(1, 10 ** 400, 1, False, 0)])
    # Below double range: a correctly rounded subnormal, or a zero of the value's sign.
    assert to_double([(1, 1, 3 << 1070, False, -1)]) == 2 * 2.0 ** -1074
    assert to_double([(-1, 1, 3 << 2140, True, -0.5)]) == -5 * 2.0 ** -1074
    for sign in (1, -1):
        zero = to_double([(sign, 1, 1 << 2200, True, 0)])
        assert zero == 0 and math.copysign(1, zero) == sign
    # pi n just below and just above 2**1024 - 2**970, where rounding overflows.
    with mpmath.workdps(400):
        n = int(mpmath.floor((2 ** 1024 - 2 ** 970) / mpmath.pi))
    assert to_double([(1, n, 1, False, 1)]) == 1.7976931348623157e308
    with pytest.raises(OverflowError):
        to_double([(1, n + 1, 1, False, 1)])


def test_pi_power_brackets_hold_their_powers():
    for bits in (64, 128, 1024, 2048):
        for pi_exp in (-1, -0.5, 0, 1):
            lo, hi = _pi_bracket(bits, pi_exp)
            with mpmath.workprec(2 * bits + 64):
                assert lo <= mpmath.pi ** pi_exp * 2 ** bits <= hi and hi - lo <= 3, (bits, pi_exp)
