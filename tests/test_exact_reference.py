"""The integer core against the rational loop it replaced.

``threej_lm`` sums the Racah series over one common integer denominator and
``g_real`` folds its prefactor into one integer radicand.  The references
below are the earlier evaluation, term by term in ``Fraction`` arithmetic,
and every value must agree exactly: sign, numerator and denominator.
"""

from fractions import Fraction

import pytest

from misiolek.exact import factorial
from misiolek.structure import g_real
from misiolek.wigner import threej_lm

L_MAX = 12


def _parity(n):
    return -1 if n % 2 else 1


def reference_racah(l1, l2, l3, m1, m2, m3):
    """(sign, squared value) of the 3j symbol from the Racah sum in Fraction arithmetic."""
    if (m1 + m2 + m3 != 0 or abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3
            or not abs(l1 - l2) <= l3 <= l1 + l2):
        return 0, Fraction(0)
    delta = Fraction(
        factorial(l1 + l2 - l3) * factorial(l1 - l2 + l3) * factorial(-l1 + l2 + l3),
        factorial(l1 + l2 + l3 + 1),
    )
    prod = (
        factorial(l1 + m1) * factorial(l1 - m1)
        * factorial(l2 + m2) * factorial(l2 - m2)
        * factorial(l3 + m3) * factorial(l3 - m3)
    )
    t_min = max(0, l2 - l3 - m1, l1 - l3 + m2)
    t_max = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        denom = (
            factorial(t)
            * factorial(l3 - l2 + t + m1)
            * factorial(l3 - l1 + t - m2)
            * factorial(l1 + l2 - l3 - t)
            * factorial(l1 - t - m1)
            * factorial(l2 - t + m2)
        )
        total += Fraction(_parity(t), denom)
    if total == 0:
        return 0, Fraction(0)
    sign = _parity(l1 - l2 - m3) * (1 if total > 0 else -1)
    return sign, total * total * delta * prod


def reference_g(symbols, l1, m1, l2, m2, l3, m3):
    """(sign, squared value over 1/pi) of g as -(1/2) * L123 * 3j * 3j in Fraction arithmetic."""
    if (m1 + m2 + m3 != 0 or (l1 + l2 + l3) % 2 == 0
            or not abs(l1 - l2) + 1 <= l3 <= l1 + l2 - 1):
        return 0, Fraction(0)
    s1, r1 = symbols[l1, l2, l3, m1, m2, m3]
    s2, r2 = symbols[l1, l2, l3, 1, -1, 0]
    l123_squared = (2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) * l1 * (l1 + 1) * l2 * (l2 + 1)
    return -s1 * s2, Fraction(1, 4) * l123_squared * r1 * r2


def _tuples(l_max):
    for l1 in range(l_max + 1):
        for l2 in range(l_max + 1):
            for l3 in range(abs(l1 - l2), min(l1 + l2, l_max) + 1):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        if abs(m1 + m2) <= l3:
                            yield l1, l2, l3, m1, m2, -(m1 + m2)


@pytest.fixture(scope="module")
def symbols():
    return {args: reference_racah(*args) for args in _tuples(L_MAX)}


def test_threej_lm_equals_rational_reference(symbols):
    for args, (sign, square) in symbols.items():
        value = threej_lm(*args)
        assert (value.sign, value.num, value.den) == (sign, square.numerator, square.denominator), args


def test_g_real_equals_rational_reference(symbols):
    checked = 0
    for l1, l2, l3, m1, m2, m3 in symbols:
        if l1 < 1 or l2 < 1:
            continue
        sign, square = reference_g(symbols, l1, m1, l2, m2, l3, m3)
        root = g_real(l1, m1, l2, m2, l3, m3)
        assert (root.sign, root.num, root.den) == (sign, square.numerator, square.denominator), \
            (l1, m1, l2, m2, l3, m3)
        checked += sign != 0
    assert checked > 10_000
