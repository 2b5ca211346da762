"""Structure constants of the divergence-free vector-field algebra on the sphere.

The Poisson bracket of two spherical harmonics expands over a short band of
output degrees; the real constants g carry all magnitudes and the complex
phase is the discrete unit -i*(-1)^(m1+m2), which the orders fix, so an
expansion holds only the constants.  A constant is held as the SignedSqrtRational ``r`` of its
value ``r / sqrt(pi)``: the 1/sqrt(pi) factor is implicit, so ``r.radicand``
is the exact coefficient of 1/pi in g**2, and it enters a float only in
``bracket_coefficient``, as the root's term over sqrt(pi) correctly rounded.
"""

from __future__ import annotations

from itertools import islice, permutations
from operator import itemgetter
from typing import Dict

from .checks import SuiteResult
from .exact import Frozen, SignedSqrtRational, to_double
from .wigner import _parity, _racah_core, threej_band, threej_lm


class HarmonicIndex(Frozen):
    """Degree/order pair (l, m) of a spherical harmonic."""

    __slots__ = _fields = ("l", "m")

    def __init__(self, l: int, m: int) -> None:
        if l < 0:
            raise ValueError(f"negative degree {l}")
        if abs(m) > l:
            raise ValueError(f"order {m} exceeds degree {l}")
        set_l, set_m = self._writers
        set_l(self, l)
        set_m(self, m)


_ZERO = SignedSqrtRational.zero()


def _is_negation(x: SignedSqrtRational, y: SignedSqrtRational) -> bool:
    """x == -y, compared on the canonical integers without building -y."""
    return x.sign == -y.sign and x.num == y.num and x.den == y.den


def _l123_squared(l1: int, l2: int, l3: int) -> int:
    """Square of the prefactor L123 = sqrt((2l1+1)(2l2+1)(2l3+1) l1(l1+1) l2(l2+1))."""
    return (2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) * l1 * (l1 + 1) * l2 * (l2 + 1)


def g_real(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> SignedSqrtRational:
    """Real structure constant g^{l3 m3}_{l1 m1 l2 m2}, times sqrt(pi).

    The value is -(1/sqrt(4*pi)) * L123 * (l1 l2 l3; m1 m2 m3) * (l1 l2 l3; 1 -1 0);
    the returned root omits the 1/sqrt(pi).  It is exactly zero in every
    selection-rule case.
    """
    if l1 < 0 or l2 < 0 or l3 < 0:
        raise ValueError("negative degree")
    # Selection rules.  The triangle is strict: its boundary has an even
    # degree sum, where g vanishes anyway.  Zonal inputs commute: at the odd
    # degree sum left, (l1 l2 l3; 0 0 0) vanishes.
    if (l1 < 1 or l2 < 1 or m1 + m2 + m3 or not (l1 + l2 + l3) % 2 or m1 == m2 == 0
            or not abs(l1 - l2) < l3 < l1 + l2
            or abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3):
        return _ZERO
    # The clause above holds every rule threej_lm checks.  The m-symbol is
    # read once per sweep, so it skips the Racah cache and stays unreduced;
    # the (1 -1 0) symbol is shared by every order pair of the degree triple,
    # so it goes through the cache.
    sign, num, den = _racah_core(l1, l2, l3, m1, m2, m3)
    b = threej_lm(l1, l2, l3, 1, -1, 0)
    # -1/sqrt(4) * L123 * (m-symbol) * b as one radicand, reduced by its one gcd.
    return SignedSqrtRational._reduce(
        -sign * b.sign, _l123_squared(l1, l2, l3) * num * b.num, 4 * den * b.den)


def bracket_coefficient(m3: int, g: SignedSqrtRational) -> complex:
    """The complex coefficient -i*(-1)^m3 * g / sqrt(pi) of a bracket term.

    ``g`` is the root of a ``bracket_expand`` term and m3 = m1 + m2 the order
    of its output harmonic.  The magnitude is g / sqrt(pi) correctly rounded.
    """
    # Round before the phase: the sign of the real part's zero depends on it.
    return complex(0.0, -_parity(m3)) * to_double([(g.sign, g.num, g.den, True, -0.5)])


def bracket_expand(a: HarmonicIndex, b: HarmonicIndex) -> Dict[int, SignedSqrtRational]:
    """Expand the Poisson bracket of two harmonics as ``{l3: g}``.

    {Y_a, Y_b} is the sum over l3 of ``bracket_coefficient(a.m + b.m, g)``
    times Y_{l3, a.m+b.m}.  The keys ascend and zero terms are dropped.
    Degree-zero inputs (constant stream functions) and zonal pairs commute,
    so they give ``{}``.  Every other pair takes its m-symbols from one
    ``threej_band`` recurrence, and each g is ``g_real``'s value, reduced
    once from the band's unreduced square.
    """
    l1, m1, l2, m2 = a.l, a.m, b.l, b.m
    if l1 == 0 or l2 == 0 or m1 == m2 == 0:
        return {}
    pair = (2 * l1 + 1) * (2 * l2 + 1) * l1 * (l1 + 1) * l2 * (l2 + 1)  # L123^2 / (2 l3 + 1)
    terms = []
    # g vanishes unless l1 + l2 + l3 is odd with |l1 - l2| < l3 < l1 + l2.  The
    # band descends from l3 = l1 + l2, so the odd sums are every other symbol
    # from its second on.
    band = threej_band(l1, l2, m1, m2, abs(l1 - l2) + 1)
    for l3, sign, num, den in islice(band, 1, None, 2):
        if not sign:
            continue
        flat = threej_lm(l1, l2, l3, 1, -1, 0)
        # -1/sqrt(4) * L123 * (m-symbol) * flat as one radicand, as in g_real.
        terms.append((l3, SignedSqrtRational._reduce(
            -sign * flat.sign, (2 * l3 + 1) * pair * num * flat.num, 4 * den * flat.den)))
    return dict(reversed(terms))


def validate_symmetries(res: SuiteResult, l_max: int) -> None:
    """Exhaustively check the cyclic, order-negation and lower-swap identities.

    All tuples with degrees <= l_max and orders summing to zero are checked
    (other tuples vanish identically on both sides), one check per tuple,
    added to ``res``.  These are exact identities, so any failure is a
    defect, not a tolerance issue.

    The identities only permute the degrees, so the tuples are taken one
    degree multiset {l1, l2, l3} at a time: ``g_real`` runs once per tuple of
    the group, at the tuple's own arguments, and every identity reads its
    values from that table, which is dropped before the next group.  Failures
    are reported in (l1, m1, l2, m2, l3) order, and per tuple as cyclic,
    order-negation, lower-swap.
    """
    failures = []
    for a in range(l_max + 1):
        for b in range(a, l_max + 1):
            for c in range(b, l_max + 1):
                values = {}
                for l1, l2, l3 in dict.fromkeys(permutations((a, b, c))):
                    for m1 in range(-l1, l1 + 1):
                        for m2 in range(max(-l2, -l3 - m1), min(l2, l3 - m1) + 1):
                            args = (l1, m1, l2, m2, l3, -(m1 + m2))
                            g = g_real(*args)
                            values[args] = (g.sign, g.num, g.den)
                res.checks += len(values)
                for args, base in values.items():
                    l1, m1, l2, m2, l3, m3 = args
                    sign, num, den = base
                    negated = (-sign, num, den)
                    if not (base == values[l3, m3, l1, m1, l2, m2] == values[l2, m2, l3, m3, l1, m1]):
                        failures.append((args, "cyclic"))
                    if values[l1, -m1, l2, -m2, l3, -m3] != negated:
                        failures.append((args, "order-negation"))
                    if values[l2, m2, l1, m1, l3, m3] != negated:
                        failures.append((args, "lower-swap"))
    # Stable: a tuple's identities keep their order.
    failures.sort(key=itemgetter(0))
    res.failures.extend(f"{identity} identity off at {args}" for args, identity in failures)
