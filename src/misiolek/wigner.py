"""Exact Wigner 3j symbols for integer angular momenta.

The general path evaluates the Racah alternating sum in integer arithmetic
over one common denominator and only then splits off the square root, so
cancellations are exact; it is the single-symbol path.  ``_racah_core`` is
that sum uncached and unreduced, a ``(sign, num, den)`` triple, for a symbol
that is read once and multiplied into a larger radicand before any gcd (the
m-symbol of ``structure.g_real``); ``_racah`` is its reduced value behind an
unbounded cache, which ``threej_lm`` reads, for symbols that repeat, such as
the (l1 l2 l3; 1 -1 0) symbol shared by every order pair of a degree triple.
A whole band of symbols over the third degree comes from one integer
three-term recurrence instead.  Two closed forms and one recursion are kept
as separate operations: they are cross-validation targets, not fast paths.
Each builds its symbol as one integer triple and reduces it once.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm
from typing import Iterator, Tuple

from .exact import SignedSqrtRational, factorial


class ClosedFormDomainError(ValueError):
    """A closed form was asked for arguments outside its structural domain.

    Callers should fall back to the general Racah path; the symbol itself is
    typically nonzero there, so returning zero would be wrong.
    """


_ZERO = SignedSqrtRational.zero()


def _parity(n: int) -> int:
    return -1 if n % 2 else 1


def _racah_core(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> Tuple[int, int, int]:
    """Racah single-sum evaluation as ``(sign, num, den)``; assumes selection rules hold.

    The symbol is ``sign * sqrt(num/den)`` with ``num/den`` not reduced,
    ``den > 0``, and ``(0, 0, 1)`` for a vanishing sum.  The term of index t
    is (-1)^t / D(t), with D(t) the product of the factorials of t, a+t, b+t,
    c-t, d-t and e-t.  The sum runs over one common denominator, the product
    of those six factorials at their extreme t, so every term is an integer
    and each one follows from the last by a small exact ratio.
    """
    a, b = l3 - l2 + m1, l3 - l1 - m2
    c, d, e = l1 + l2 - l3, l1 - m1, l2 + m2
    t_min = max(0, -a, -b)
    t_max = min(c, d, e)
    common = (
        factorial(t_max) * factorial(a + t_max) * factorial(b + t_max)
        * factorial(c - t_min) * factorial(d - t_min) * factorial(e - t_min)
    )
    span = t_max - t_min
    term = perm(t_max, span) * perm(a + t_max, span) * perm(b + t_max, span)
    total = term = -term if t_min % 2 else term
    for t in range(t_min, t_max):
        term = -term * ((c - t) * (d - t) * (e - t)) // ((t + 1) * (a + t + 1) * (b + t + 1))
        total += term
    if total == 0:
        return 0, 0, 1
    sign = _parity(l1 - l2 - m3) * (1 if total > 0 else -1)
    num = (
        total * total
        * factorial(c) * factorial(l1 - l2 + l3) * factorial(-l1 + l2 + l3)
        * factorial(l1 + m1) * factorial(d)
        * factorial(l2 + m2) * factorial(l2 - m2)
        * factorial(l3 + m3) * factorial(l3 - m3)
    )
    return sign, num, common * common * factorial(l1 + l2 + l3 + 1)


@lru_cache(maxsize=None)
def _racah(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> SignedSqrtRational:
    """The Racah sum's symbol, reduced with one gcd; assumes selection rules hold."""
    return SignedSqrtRational._reduce(*_racah_core(l1, l2, l3, m1, m2, m3))


def threej_band(l1: int, l2: int, m1: int, m2: int, j_low: int) -> Iterator[Tuple[int, int, int, int]]:
    """The symbols (l1 l2 j; m1 m2 m3), m3 = -(m1+m2), for j from l1+l2 down.

    Yields ``(j, sign, num, den)``: the symbol is ``sign * sqrt(num/den)``,
    with ``num/den`` left unreduced.  The whole band comes from one exact
    three-term recurrence in j (Schulten & Gordon, J. Math. Phys. 16 (1975)
    1961; Luscombe & Luban, Phys. Rev. E 57 (1998) 7274):

        j A(j+1) f(j+1) + B(j) f(j) + (j+1) A(j) f(j-1) = 0,
        A(j)^2 = (j^2 - (l1-l2)^2) ((l1+l2+1)^2 - j^2) (j^2 - m3^2),
        B(j) = -(2j+1) (l1(l1+1) m3 - l2(l2+1) m3 - j(j+1) (m2-m1)).

    Seeded with the stretched symbol f(l1+l2) = +-sqrt(p/q) and written as
    f(j) = f(l1+l2) u(j) / (d(j) sqrt(Q(j))), it runs in integers:
    u(j-1) = -(B(j) u(j) + j(j+2) A(j+1)^2 u(j+1)), d(j-1) = (j+1) d(j) and
    Q(j-1) = Q(j) A(j)^2.  The band stops at max(j_low, |l1-l2|, |m3|),
    where A vanishes.  Orders must not exceed their degrees.
    """
    m3 = -(m1 + m2)
    top = l1 + l2
    sign = _parity(l1 - l2 - m3)
    # The stretched symbol's square p/q: its factorial ratio is
    # C(2 l1, l1+m1) C(2 l2, l2+m2) / ((2 top + 1) C(2 top, top-m3)).
    p = comb(2 * l1, l1 + m1) * comb(2 * l2, l2 + m2)
    den = (2 * top + 1) * comb(2 * top, top - m3)
    yield top, sign, p, den
    diff2, sum2, m3_2 = (l1 - l2) ** 2, (top + 1) ** 2, m3 * m3
    turn, dm = (l1 * (l1 + 1) - l2 * (l2 + 1)) * m3, m2 - m1
    u_above, u, a2_above = 0, 1, 0
    for j in range(top, max(j_low, abs(l1 - l2), abs(m3)), -1):
        jj = j * j
        a2 = (jj - diff2) * (sum2 - jj) * (jj - m3_2)
        # u(j-1) = -(B(j) u(j) + j(j+2) A(j+1)^2 u(j+1)), with -B(j) expanded.
        u_above, u = u, (2 * j + 1) * (turn - (jj + j) * dm) * u - j * (j + 2) * a2_above * u_above
        # den = q d(j-1)^2 Q(j-1) = q d(j)^2 Q(j) (j+1)^2 A(j)^2.
        den *= (j + 1) * (j + 1) * a2
        a2_above = a2
        yield j - 1, (sign if u > 0 else -sign) if u else 0, p * u * u, den


def selection_rules_hold(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> bool:
    """Whether (l1 l2 l3; m1 m2 m3) passes the selection rules: orders summing
    to zero, each within its degree, and the triangle rule on the degrees."""
    return (m1 + m2 + m3 == 0 and abs(m1) <= l1 and abs(m2) <= l2 and abs(m3) <= l3
            and abs(l1 - l2) <= l3 <= l1 + l2)


def threej_lm(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> SignedSqrtRational:
    """Exact 3j symbol; zero when a selection rule fails."""
    if l1 < 0 or l2 < 0 or l3 < 0:
        raise ValueError("negative degree")
    if not selection_rules_hold(l1, l2, l3, m1, m2, m3):
        return _ZERO
    return _racah(l1, l2, l3, m1, m2, m3)


def threej_closed_stretched(l1: int, m: int, l3: int, m1: int) -> SignedSqrtRational:
    """Closed form for (l1 m l3; m1 -m m-m1), second column stretched.

    Zero is returned where the symbol genuinely vanishes (triangle or order
    bounds); patterns the formula cannot represent raise
    ClosedFormDomainError.
    """
    if m < 0 or l1 < 0 or l3 < 0:
        raise ClosedFormDomainError("degrees must be nonnegative")
    if abs(m1) > l1 or abs(m - m1) > l3:
        return SignedSqrtRational.zero()
    if not abs(l1 - m) <= l3 <= l1 + m:
        return SignedSqrtRational.zero()
    num = factorial(2 * m) * factorial(l1 + l3 - m) * factorial(l3 - m1 + m) * factorial(l1 + m1)
    den = (
        factorial(l1 + l3 + m + 1) * factorial(l1 - l3 + m) * factorial(-l1 + l3 + m)
        * factorial(l3 + m1 - m) * factorial(l1 - m1)
    )
    return SignedSqrtRational._reduce(_parity(l1 - m1), num, den)


def _closed_110(l1: int, l2: int, l3: int) -> Tuple[int, int, int]:
    """(l1 l2 l3; 1 -1 0) as an unreduced ``(sign, num, den)``.

    Needs an odd degree sum inside the triangle.  The symbol is a signed root
    of a factorial ratio times a positive rational p/q, folded in as p**2/q**2.
    """
    big_j = l1 + l2 + l3 + 1
    half = big_j // 2
    p = factorial(half)
    q = 2 * factorial(half - l3) * factorial(half - l1) * factorial(half - l2 - 1)
    num = (
        (big_j + 1) * (big_j - 2 * l3) * (big_j - 2 * l1) * (big_j - 2 * l2 - 1)
        * factorial(big_j - 2 * l3) * factorial(big_j - 2 * l1) * factorial(big_j - 2 * l2 - 2)
    )
    den = l1 * (l1 + 1) * l2 * (l2 + 1) * factorial(big_j + 1)
    return _parity(half), num * p * p, den * q * q


def threej_closed_110(l1: int, l2: int, l3: int) -> SignedSqrtRational:
    """Closed form for (l1 l2 l3; 1 -1 0); needs l1+l2+l3 odd.

    For an even degree sum the symbol is generally nonzero but the closed
    form does not apply, so that case is rejected rather than zeroed.
    """
    if l1 < 1 or l2 < 1 or l3 < 0:
        raise ClosedFormDomainError("requires l1, l2 >= 1 and l3 >= 0")
    big_j = l1 + l2 + l3 + 1
    if big_j % 2:
        raise ClosedFormDomainError("degree sum must be odd for this closed form")
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        return SignedSqrtRational.zero()
    return SignedSqrtRational._reduce(*_closed_110(l1, l2, l3))


def threej_recursive_112(l1: int, l2: int, l3: int) -> SignedSqrtRational:
    """(l1 l2 l3; 1 1 -2) from the (1 -1 0) closed form of permuted degrees.

    For an odd degree sum the ladder-operator recursions collapse to

        (l1 l2 l3; 1 1 -2)
            = (l2(l2+1) - l1(l1+1)) / sqrt(l1(l1+1) (l3(l3+1)-2))
              * (l2 l3 l1; 1 -1 0),

    so equal l1, l2 force a zero.  l3 <= 1 makes the denominator vanish and
    an even degree sum breaks the derivation; both are rejected.
    """
    if l1 < 1 or l2 < 1:
        raise ClosedFormDomainError("requires l1, l2 >= 1")
    if l3 < 2:
        raise ClosedFormDomainError("denominator l3(l3+1)-2 vanishes for l3 <= 1")
    if (l1 + l2 + l3) % 2 == 0:
        raise ClosedFormDomainError("degree sum must be odd for this recursion")
    if l1 == l2 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return SignedSqrtRational.zero()
    turn1, turn2, turn3 = l1 * (l1 + 1), l2 * (l2 + 1), l3 * (l3 + 1)
    sign, num, den = _closed_110(l2, l3, l1)
    return SignedSqrtRational._reduce(sign if turn2 > turn1 else -sign, num * (turn2 - turn1) ** 2,
                                      den * turn1 * (turn3 - 2))
