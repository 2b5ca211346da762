"""Structure constants of the divergence-free vector-field algebra on the sphere.

The Poisson bracket of two spherical harmonics expands over a short band of
output degrees; the real constants g carry all magnitudes and the complex
phase is the discrete unit -i*(-1)^(m1+m2), tracked as a tag instead of a
complex float.  Every value keeps its 1/sqrt(4*pi) factor symbolically, so
squares of constants are exact rationals over pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Iterator, List, Tuple

from .exact import RationalLike, SignedSqrtRational
from .wigner import _parity, threej_lm


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


@dataclass(frozen=True, slots=True)
class StructureValue:
    """Exact value ``root * pi**pi_exp`` of a structure constant.

    Structure constants are square roots of rationals divided by sqrt(pi),
    so pi_exp is the constant -1/2.
    """

    root: SignedSqrtRational
    pi_exp: ClassVar[Fraction] = Fraction(-1, 2)

    def is_zero(self) -> bool:
        return self.root.is_zero()

    @property
    def sign(self) -> int:
        return self.root.sign

    def squared_over_pi(self) -> Fraction:
        """Exact square as the coefficient of pi**(2*pi_exp)."""
        return self.root.square()

    def scale(self, factor: RationalLike) -> "StructureValue":
        return StructureValue(self.root.scale(factor))

    def __neg__(self) -> "StructureValue":
        return StructureValue(-self.root)

    def to_float(self) -> float:
        return self.root.to_float() * _PI_POWER


_PI_POWER = math.pi ** float(StructureValue.pi_exp)
_ZERO = StructureValue(SignedSqrtRational.zero())


def _l123_squared(l1: int, l2: int, l3: int) -> int:
    return (2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) * l1 * (l1 + 1) * l2 * (l2 + 1)


def l123(l1: int, l2: int, l3: int) -> SignedSqrtRational:
    """Positive prefactor sqrt((2l1+1)(2l2+1)(2l3+1) l1(l1+1) l2(l2+1))."""
    if l1 < 1 or l2 < 1:
        raise ValueError("requires l1, l2 >= 1")
    return SignedSqrtRational.sqrt(_l123_squared(l1, l2, l3))


def _g_selection_zero(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> bool:
    if m1 + m2 + m3 != 0:
        return True
    if (l1 + l2 + l3) % 2 == 0:
        return True
    # Strict interior of the triangle; the boundary has even degree sum anyway.
    if not abs(l1 - l2) + 1 <= l3 <= l1 + l2 - 1:
        return True
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return True
    return False


def g_real(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> StructureValue:
    """Real structure constant g^{l3 m3}_{l1 m1 l2 m2}.

    Value is -(1/sqrt(4*pi)) * L123 * (l1 l2 l3; m1 m2 m3) * (l1 l2 l3; 1 -1 0),
    exactly zero in every selection-rule case.
    """
    if l1 < 0 or l2 < 0 or l3 < 0:
        raise ValueError("negative degree")
    if l1 < 1 or l2 < 1 or _g_selection_zero(l1, m1, l2, m2, l3, m3):
        return _ZERO
    a = threej_lm(l1, l2, l3, m1, m2, m3)
    b = threej_lm(l1, l2, l3, 1, -1, 0)
    # -1/sqrt(4) * L123 * a * b as one radicand; the remaining 1/sqrt(pi) is pi_exp.
    return StructureValue(SignedSqrtRational._reduce(
        -a.sign * b.sign, _l123_squared(l1, l2, l3) * a.num * b.num, 4 * a.den * b.den))


@dataclass(frozen=True)
class BracketTerm:
    """One output harmonic of a Poisson bracket expansion.

    The complex coefficient is ``phase * g.to_float()`` where phase is the
    unit -i*(-1)^(m1+m2), stored as its imaginary part (+1 or -1).
    """

    l3: int
    m3: int
    g: StructureValue
    phase_imag: int

    def coefficient(self) -> complex:
        return complex(0.0, self.phase_imag) * self.g.to_float()


@dataclass(frozen=True)
class BracketExpansion:
    """Expansion of {Y_{l1 m1}, Y_{l2 m2}} over output degrees l3."""

    input1: HarmonicIndex
    input2: HarmonicIndex
    terms: Tuple[BracketTerm, ...] = field(default_factory=tuple)

    @property
    def output_order(self) -> int:
        return self.input1.m + self.input2.m

    def term(self, l3: int) -> BracketTerm:
        for t in self.terms:
            if t.l3 == l3:
                return t
        raise KeyError(f"no term at degree {l3}")

    def degrees(self) -> List[int]:
        return [t.l3 for t in self.terms]

    def coefficient(self, l3: int) -> complex:
        for t in self.terms:
            if t.l3 == l3:
                return t.coefficient()
        return 0j

    def __iter__(self) -> Iterator[BracketTerm]:
        return iter(self.terms)


def bracket_expand(a: HarmonicIndex, b: HarmonicIndex) -> BracketExpansion:
    """Expand the Poisson bracket of two harmonics; zero terms are dropped.

    Degree-zero inputs (constant stream functions) give the empty expansion.
    """
    if a.l == 0 or b.l == 0:
        return BracketExpansion(a, b)
    m3 = a.m + b.m
    phase_imag = -_parity(m3)  # imaginary part of -i*(-1)^(m1+m2)
    terms = []
    # g vanishes when l1 + l2 + l3 is even, so only every other l3 is visited.
    for l3 in range(abs(a.l - b.l) + 1, a.l + b.l, 2):
        g = g_real(a.l, a.m, b.l, b.m, l3, -m3)
        if not g.is_zero():
            terms.append(BracketTerm(l3, m3, g, phase_imag))
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
                if not (base.root == cyclic1.root == cyclic2.root):
                    report.failures.append(SymmetryFailure("cyclic", (l1, m1, l2, m2, l3, m3)))
                if negated.root != (-base).root:
                    report.failures.append(SymmetryFailure("order-negation", (l1, m1, l2, m2, l3, m3)))
                if swapped.root != (-base).root:
                    report.failures.append(SymmetryFailure("lower-swap", (l1, m1, l2, m2, l3, m3)))
    return report
