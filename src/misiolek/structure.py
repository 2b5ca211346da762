"""Structure constants of the divergence-free vector-field algebra on the sphere.

The Poisson bracket of two spherical harmonics expands over a short band of
output degrees; the real constants g carry all magnitudes and the complex
phase is the discrete unit -i*(-1)^(m1+m2), tracked as a tag instead of a
complex float.  A constant is held as the SignedSqrtRational ``r`` of its
value ``r / sqrt(pi)``: the 1/sqrt(pi) factor is implicit, so ``r.square()``
is the exact coefficient of 1/pi in g**2, and it enters a float only in
``BracketTerm.coefficient``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Tuple

from .exact import SignedSqrtRational
from .wigner import _parity, threej_band, threej_lm


@dataclass(frozen=True)
class HarmonicIndex:
    """Degree/order pair (l, m) of a spherical harmonic."""

    l: int
    m: int

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError(f"negative degree {self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"order {self.m} exceeds degree {self.l}")

    @property
    def laplacian_eigenvalue(self) -> int:
        return -self.l * (self.l + 1)

    def conjugate(self) -> "HarmonicIndex":
        return HarmonicIndex(self.l, -self.m)


#: The implicit factor of every structure constant, as a float.
_PI_POWER = math.pi ** -0.5
_ZERO = SignedSqrtRational.zero()


def _is_negation(x: SignedSqrtRational, y: SignedSqrtRational) -> bool:
    """x == -y, compared on the canonical integers without building -y."""
    return x.sign == -y.sign and x.num == y.num and x.den == y.den


def _l123_squared(l1: int, l2: int, l3: int) -> int:
    return (2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) * l1 * (l1 + 1) * l2 * (l2 + 1)


def l123(l1: int, l2: int, l3: int) -> SignedSqrtRational:
    """Positive prefactor sqrt((2l1+1)(2l2+1)(2l3+1) l1(l1+1) l2(l2+1))."""
    if l1 < 1 or l2 < 1:
        raise ValueError("requires l1, l2 >= 1")
    return SignedSqrtRational.sqrt(_l123_squared(l1, l2, l3))


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
    a = threej_lm(l1, l2, l3, m1, m2, m3)
    b = threej_lm(l1, l2, l3, 1, -1, 0)
    # -1/sqrt(4) * L123 * a * b as one radicand.
    return SignedSqrtRational._reduce(
        -a.sign * b.sign, _l123_squared(l1, l2, l3) * a.num * b.num, 4 * a.den * b.den)


@dataclass(frozen=True)
class BracketTerm:
    """One output harmonic of a Poisson bracket expansion.

    The complex coefficient is ``phase * g / sqrt(pi)`` where phase is the
    unit -i*(-1)^(m1+m2), stored as its imaginary part (+1 or -1), and ``g``
    is the root returned by ``g_real``.
    """

    l3: int
    m3: int
    g: SignedSqrtRational
    phase_imag: int

    def coefficient(self) -> complex:
        # Scale before the phase: the sign of the real part's zero depends on it.
        return complex(0.0, self.phase_imag) * (self.g.to_float() * _PI_POWER)


@dataclass(frozen=True)
class BracketExpansion:
    """Expansion of {Y_{l1 m1}, Y_{l2 m2}} over output degrees l3."""

    input1: HarmonicIndex
    input2: HarmonicIndex
    terms: Tuple[BracketTerm, ...] = field(default_factory=tuple)
    _by_degree: Dict[int, BracketTerm] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_degree", {t.l3: t for t in self.terms})

    @property
    def output_order(self) -> int:
        return self.input1.m + self.input2.m

    def term(self, l3: int) -> BracketTerm:
        t = self._by_degree.get(l3)
        if t is None:
            raise KeyError(f"no term at degree {l3}")
        return t

    def degrees(self) -> List[int]:
        return [t.l3 for t in self.terms]

    def coefficient(self, l3: int) -> complex:
        t = self._by_degree.get(l3)
        return 0j if t is None else t.coefficient()

    def __iter__(self) -> Iterator[BracketTerm]:
        return iter(self.terms)


def bracket_expand(a: HarmonicIndex, b: HarmonicIndex) -> BracketExpansion:
    """Expand the Poisson bracket of two harmonics; zero terms are dropped.

    Degree-zero inputs (constant stream functions) and zonal pairs commute,
    so they give the empty expansion.  Every other pair takes its m-symbols
    from one ``threej_band`` recurrence, and each term is ``g_real``'s value,
    reduced once from the band's unreduced square.
    """
    l1, m1, l2, m2 = a.l, a.m, b.l, b.m
    if l1 == 0 or l2 == 0 or m1 == m2 == 0:
        return BracketExpansion(a, b)
    m3 = m1 + m2
    phase_imag = -_parity(m3)  # imaginary part of -i*(-1)^(m1+m2)
    pair = (2 * l1 + 1) * (2 * l2 + 1) * l1 * (l1 + 1) * l2 * (l2 + 1)  # L123^2 / (2 l3 + 1)
    terms = []
    # g vanishes unless l1 + l2 + l3 is odd with |l1 - l2| < l3 < l1 + l2.  The
    # band starts at l3 = l1 + l2, so the odd sums are every other symbol from
    # its second on.
    band = threej_band(l1, l2, m1, m2, abs(l1 - l2) + 1)
    for l3, sign, num, den in islice(band, 1, None, 2):
        if not sign:
            continue
        flat = threej_lm(l1, l2, l3, 1, -1, 0)
        # -1/sqrt(4) * L123 * (m-symbol) * flat as one radicand, as in g_real.
        g = SignedSqrtRational._reduce(
            -sign * flat.sign, (2 * l3 + 1) * pair * num * flat.num, 4 * den * flat.den)
        terms.append(BracketTerm(l3, m3, g, phase_imag))
    terms.reverse()
    return BracketExpansion(a, b, tuple(terms))


@dataclass(frozen=True)
class SymmetryFailure:
    identity: str
    indices: Tuple[int, ...]


@dataclass
class SymmetryReport:
    l_max: int
    checks: int = 0
    failures: List[SymmetryFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _index_pairs(l_max: int) -> Iterator[Tuple[int, int]]:
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            yield l, m


def validate_symmetries(l_max: int) -> SymmetryReport:
    """Exhaustively check the cyclic, order-negation and lower-swap identities.

    All tuples with degrees <= l_max and orders summing to zero are checked
    (other tuples vanish identically on both sides).  These are exact
    identities, so any failure is a defect, not a tolerance issue.
    """
    report = SymmetryReport(l_max)
    for l1, m1 in _index_pairs(l_max):
        for l2, m2 in _index_pairs(l_max):
            for l3 in range(l_max + 1):
                m3 = -(m1 + m2)
                if abs(m3) > l3:
                    continue
                base = g_real(l1, m1, l2, m2, l3, m3)
                cyclic1 = g_real(l3, m3, l1, m1, l2, m2)
                cyclic2 = g_real(l2, m2, l3, m3, l1, m1)
                negated = g_real(l1, -m1, l2, -m2, l3, -m3)
                swapped = g_real(l2, m2, l1, m1, l3, m3)
                report.checks += 1
                if not (base == cyclic1 == cyclic2):
                    report.failures.append(SymmetryFailure("cyclic", (l1, m1, l2, m2, l3, m3)))
                if not _is_negation(negated, base):
                    report.failures.append(SymmetryFailure("order-negation", (l1, m1, l2, m2, l3, m3)))
                if not _is_negation(swapped, base):
                    report.failures.append(SymmetryFailure("lower-swap", (l1, m1, l2, m2, l3, m3)))
    return report
