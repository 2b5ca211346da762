"""Misiolek criterion in flat, Coriolis, zonal-ratio and Rossby-Haurwitz form.

Every criterion value is carried exactly: flat criteria are rationals over
pi, the Coriolis correction for zonal flows adds a rotation rate times a
structure constant (a radical over sqrt(pi)), and wave criteria stay fully
rational once amplitudes are taken exactly.  Floats appear only at the final
critical-ratio and threshold divisions, where a bare radical survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .exact import SignedSqrtRational
from .structure import HarmonicIndex, g_real
from .wigner import _parity

Numeric = Union[int, float, Fraction]

STATUS_OK = "ok"
STATUS_UNDEFINED = "undefined"
STATUS_NOT_APPLICABLE = "not-applicable"


class OrderCollisionError(ValueError):
    """Perturbation orders coincide, outside the additivity hypothesis."""


class CriterionDefect(AssertionError):
    """An exact identity of the criterion failed; this is a library defect."""


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _turn(l: int) -> int:
    """Spectral weight l(l+1) of the degree-l Laplacian eigenspace."""
    return l * (l + 1)


@dataclass(frozen=True)
class MCValue:
    """Exact scalar  rational + over_pi/pi + root/sqrt(pi).

    The three components are linearly independent over the rationals, so the
    representation is canonical and dataclass equality is value equality.
    """

    rational: Fraction = Fraction(0)
    over_pi: Fraction = Fraction(0)
    root_over_sqrt_pi: SignedSqrtRational = SignedSqrtRational.zero()

    @classmethod
    def zero(cls) -> "MCValue":
        return cls()

    def __add__(self, other: "MCValue") -> "MCValue":
        if not self.root_over_sqrt_pi.is_zero() and not other.root_over_sqrt_pi.is_zero():
            raise ValueError("sum of two distinct radicals is not representable")
        root = self.root_over_sqrt_pi if other.root_over_sqrt_pi.is_zero() else other.root_over_sqrt_pi
        return MCValue(self.rational + other.rational, self.over_pi + other.over_pi, root)

    def scale(self, factor: Numeric) -> "MCValue":
        c = Fraction(factor)
        return MCValue(self.rational * c, self.over_pi * c, self.root_over_sqrt_pi.scale(c))

    def __neg__(self) -> "MCValue":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return self.rational == 0 and self.over_pi == 0 and self.root_over_sqrt_pi.is_zero()

    def exact_sign(self) -> int:
        """Sign when all nonzero components agree; raises on mixed signs."""
        signs = {s for s in (_sign(self.rational), _sign(self.over_pi), self.root_over_sqrt_pi.sign) if s}
        if not signs:
            return 0
        if len(signs) == 1:
            return signs.pop()
        raise ValueError("components of mixed sign; compare via to_float()")

    def to_float(self) -> float:
        total = float(self.rational)
        if self.over_pi:
            total += float(self.over_pi) / math.pi
        if not self.root_over_sqrt_pi.is_zero():
            total += self.root_over_sqrt_pi.to_float() / math.sqrt(math.pi)
        return total


@dataclass(frozen=True)
class MCSummand:
    """Contribution of one output degree l3: g^2 * (l1(l1+1) - l3(l3+1))."""

    l3: int
    g_squared_over_pi: Fraction
    weight: int

    @property
    def contribution_over_pi(self) -> Fraction:
        return self.g_squared_over_pi * self.weight


@dataclass(frozen=True)
class MCReport:
    """Exact criterion evaluation with its full decomposition.

    value == sum of summand contributions over pi, plus delta_term, plus
    coriolis_term, exactly; value_float is derived from the exact value.
    """

    summands: Tuple[MCSummand, ...]
    value: MCValue
    delta_term: Fraction
    coriolis_slope: MCValue
    coriolis_term: MCValue
    rotation: Fraction

    @property
    def flat_over_pi(self) -> Fraction:
        # Coriolis slopes carry no over_pi part, so value.over_pi is the summand sum.
        return self.value.over_pi

    @property
    def value_float(self) -> float:
        return self.value.to_float()


def _sum_over_pi(summands: Sequence[MCSummand]) -> Fraction:
    """Sum of the summand contributions, over one common denominator."""
    num, den = 0, 1
    for s in summands:
        g_sq = s.g_squared_over_pi
        num = num * g_sq.denominator + g_sq.numerator * s.weight * den
        den *= g_sq.denominator
    return Fraction(num, den)


def _flat_summands(a: HarmonicIndex, b: HarmonicIndex) -> Tuple[MCSummand, ...]:
    m3 = -(a.m + b.m)
    out = []
    # g vanishes when l1 + l2 + l3 is even, so only every other l3 is visited.
    for l3 in range(abs(a.l - b.l) + 1, a.l + b.l, 2):
        g = g_real(a.l, a.m, b.l, b.m, l3, m3)
        if not g.is_zero():
            out.append(MCSummand(l3, g.squared_over_pi(), _turn(a.l) - _turn(l3)))
    return tuple(out)


def _report(summands: Tuple[MCSummand, ...], delta: Fraction = Fraction(0),
            slope: MCValue = MCValue.zero(), rotation: Fraction = Fraction(0),
            extra_const: Fraction = Fraction(0)) -> MCReport:
    over_pi = _sum_over_pi(summands)
    coriolis = slope.scale(rotation)
    value = MCValue(delta + extra_const, over_pi) + coriolis
    return MCReport(summands, value, delta, slope, coriolis, rotation)


def mc_flat(a: HarmonicIndex, b: HarmonicIndex) -> MCReport:
    """Criterion along the steady flow of Y_a probed by Y_b, no rotation."""
    if a.l < 1 or b.l < 1:
        raise ValueError("both degrees must be >= 1")
    return _report(_flat_summands(a, b))


def mc_symmetry_negate(a: HarmonicIndex, b: HarmonicIndex) -> Tuple[MCReport, MCReport]:
    """Check MC(a, b) == MC(-a, -b) exactly under global order negation."""
    left = mc_flat(a, b)
    right = mc_flat(a.conjugate(), b.conjugate())
    if left.value != right.value:
        raise CriterionDefect(f"order-negation symmetry failed for {a}, {b}")
    return left, right


def _abs_squared(x: Union[complex, Numeric]) -> Fraction:
    if isinstance(x, complex):
        return Fraction(x.real) ** 2 + Fraction(x.imag) ** 2
    return Fraction(x) ** 2


def mc_combination(a: HarmonicIndex, base: HarmonicIndex,
                   perturbations: Sequence[Tuple[Union[complex, Numeric], HarmonicIndex]]) -> MCReport:
    """MC of e_a against e_base + sum x_j e_j, exact via quadratic additivity.

    Requires all probe orders (base and perturbations) pairwise distinct;
    additivity is not claimed otherwise.
    """
    orders = [base.m] + [idx.m for _, idx in perturbations]
    if len(set(orders)) != len(orders):
        raise OrderCollisionError("probe orders must be pairwise distinct")
    merged = {s.l3: s for s in _flat_summands(a, base)}
    for x, idx in perturbations:
        weight_sq = _abs_squared(x)
        if weight_sq == 0:
            continue
        for s in _flat_summands(a, idx):
            prev = merged.get(s.l3)
            extra = s.g_squared_over_pi * weight_sq
            if prev is None:
                merged[s.l3] = MCSummand(s.l3, extra, s.weight)
            else:
                merged[s.l3] = MCSummand(s.l3, prev.g_squared_over_pi + extra, s.weight)
    summands = tuple(sorted(merged.values(), key=lambda s: s.l3))
    return _report(summands)


def coriolis_slope(a: HarmonicIndex, b: HarmonicIndex) -> MCValue:
    """Derivative of the rotated criterion in the rotation rate.

    Equals (-1)^{m2} m2 g^{l2 -m2}_{l1 m1 l2 m2}; nonzero only for zonal
    flows (m1 = 0) probed by a non-zonal harmonic.
    """
    g = g_real(a.l, a.m, b.l, b.m, b.l, -b.m)
    scaled = g.scale(_parity(b.m) * b.m)
    return MCValue(root_over_sqrt_pi=scaled.root)


def mc_coriolis(a: HarmonicIndex, b: HarmonicIndex, rotation: Numeric) -> MCReport:
    """Criterion on the rotating sphere: flat value, self-coupling penalty
    -m1^2 when probe equals flow, and the rotation term a*(-1)^{m2} m2 g."""
    if a.l < 1 or b.l < 1:
        raise ValueError("both degrees must be >= 1")
    delta = Fraction(-a.m * a.m) if a == b else Fraction(0)
    return _report(_flat_summands(a, b), delta=delta, slope=coriolis_slope(a, b),
                   rotation=Fraction(rotation))


@dataclass(frozen=True)
class CriticalRatio:
    """Rotation rate at which the zonal criterion changes sign.

    direction is ">" when rates above the value give conjugate points and
    "<" when rates below do; undefined cells have a vanishing denominator
    and must never be read as numeric zero.
    """

    l1: int
    l2: int
    m2: int
    status: str
    value: Optional[float] = None
    direction: Optional[str] = None

    @property
    def defined(self) -> bool:
        return self.status == STATUS_OK


def critical_ratio(l1: int, l2: int, m2: int) -> CriticalRatio:
    """Critical rotation rate -MC(e_{l1 0}, e_{l2 m2}) / ((-1)^{m2} m2 g)."""
    if not 1 <= m2 <= l2:
        raise ValueError("requires 1 <= m2 <= l2")
    if l1 < 1:
        raise ValueError("requires l1 >= 1")
    slope = coriolis_slope(HarmonicIndex(l1, 0), HarmonicIndex(l2, m2))
    denom = slope.root_over_sqrt_pi
    if denom.is_zero():
        return CriticalRatio(l1, l2, m2, STATUS_UNDEFINED)
    flat = mc_flat(HarmonicIndex(l1, 0), HarmonicIndex(l2, m2))
    numerator = -float(flat.flat_over_pi) / math.pi
    value = numerator / (denom.to_float() / math.sqrt(math.pi))
    return CriticalRatio(l1, l2, m2, STATUS_OK, value, ">" if denom.sign > 0 else "<")


@dataclass(frozen=True)
class CriticalRatioTable:
    """Grid of critical rotation rates over (l2, m2) for a fixed zonal flow."""

    l1: int
    l2_max: int
    cells: Tuple[CriticalRatio, ...]

    def cell(self, l2: int, m2: int) -> CriticalRatio:
        for c in self.cells:
            if (c.l2, c.m2) == (l2, m2):
                return c
        raise KeyError(f"no cell ({l2}, {m2})")

    def defined_cells(self) -> List[CriticalRatio]:
        return [c for c in self.cells if c.defined]


def critical_table(l1: int, l2_max: int = 6) -> CriticalRatioTable:
    """Full ratio grid, rows l2 <= l2_max, columns m2 <= l2_max.

    Cells with m2 > l2 are marked not-applicable, never conflated with the
    undefined (vanishing denominator) cells; even l1 gives an all-undefined
    grid because the rotation term then vanishes identically.
    """
    if l1 < 1:
        raise ValueError("requires l1 >= 1")
    cells = []
    for l2 in range(1, l2_max + 1):
        for m2 in range(1, l2_max + 1):
            if m2 > l2:
                cells.append(CriticalRatio(l1, l2, m2, STATUS_NOT_APPLICABLE))
            else:
                cells.append(critical_ratio(l1, l2, m2))
    return CriticalRatioTable(l1, l2_max, tuple(cells))


@dataclass(frozen=True)
class RHWave:
    """Traveling wave  A*Y_{l1 m1}(lambda - omega*t, mu) - C*mu.

    Constructed directly the parameters are unconstrained (tests probe
    non-solutions deliberately); the `solution` constructor picks the phase
    speed satisfying the dispersion relation instead.
    """

    A: complex
    C: Numeric
    index: HarmonicIndex
    omega: float
    alpha2: float = 0.0
    a: Numeric = 0.0

    @classmethod
    def solution(cls, A: complex, C: Numeric, index: HarmonicIndex,
                 alpha2: float = 0.0, a: Numeric = 0.0) -> "RHWave":
        spectral = _turn(index.l)
        omega = float((spectral - 2) * C + a) / (spectral + alpha2)
        return cls(A, C, index, omega, alpha2, a)

    def dispersion_residual(self) -> float:
        spectral = _turn(self.index.l)
        return self.omega * (spectral + self.alpha2) - float((spectral - 2) * self.C + self.a)

    def is_solution(self, tol: float = 1e-12) -> bool:
        return abs(self.dispersion_residual()) <= tol


def rhw_mc(wave: RHWave, probe: HarmonicIndex) -> MCReport:
    """Criterion along a Rossby-Haurwitz wave, exact in |A|^2, C and a.

    |A|^2 MC(e_{l1 m1}, e_{l2 m2}) + C^2 m2^2 (2 - l2(l2+1))
    - |A|^2 m1^2 [probe == wave index] - a m2^2 C; the traveling phase drops
    out since |exp(-i m1 omega t)| = 1.
    """
    if wave.index.m == 0:
        raise ValueError("wave order m1 must be nonzero")
    amp_sq = _abs_squared(wave.A)
    zonal = Fraction(wave.C)
    rotation = Fraction(wave.a)
    m2 = probe.m
    delta = -amp_sq * wave.index.m ** 2 if probe == wave.index else Fraction(0)
    wave_const = zonal ** 2 * m2 ** 2 * (2 - _turn(probe.l))
    slope = MCValue(rational=-Fraction(m2 ** 2) * zonal)
    summands = tuple(
        MCSummand(s.l3, s.g_squared_over_pi * amp_sq, s.weight)
        for s in _flat_summands(wave.index, probe)
    )
    return _report(summands, delta=delta, slope=slope, rotation=rotation,
                   extra_const=wave_const)


def rhw_threshold(l1: int, m1: int, m: int, K: float = 0.0) -> float:
    """Minimal |A|^2/C^2 making the wave criterion positive at rate a = -K*C.

    Equals m^2 (m(m+1) - 2 - K) / MC(e_{l1 m1}, e_{m -m}); the hypothesis
    2 <= m <= m1 <= l1 keeps the denominator positive.
    """
    if not 2 <= m <= m1 <= l1:
        raise ValueError("requires 2 <= m <= m1 <= l1")
    if K < 0:
        raise ValueError("requires K >= 0")
    flat = mc_flat(HarmonicIndex(l1, m1), HarmonicIndex(m, -m))
    denom = float(flat.flat_over_pi) / math.pi
    if denom <= 0:
        raise CriterionDefect(f"criterion not positive for ({l1},{m1}) vs ({m},{-m})")
    return m * m * (_turn(m) - 2 - K) / denom


def conjugate_time(kappa: float, v_norm: float) -> float:
    """Latest time pi/sqrt(kappa*|v|) by which a conjugate point occurs."""
    if kappa <= 0 or v_norm <= 0:
        raise ValueError("kappa and |v| must be positive")
    return math.pi / math.sqrt(kappa * v_norm)


def harmonic_velocity_norm(idx: HarmonicIndex) -> float:
    """L2 norm of the velocity field of Y_{lm}: |e_{lm}|^2 = l(l+1)."""
    return math.sqrt(_turn(idx.l))


def _probe_g_squared(l1: int, m1: int, m: int, l3: int) -> Fraction:
    return g_real(l1, m1, m, -m, l3, m - m1).squared_over_pi()


def positivity_chain(l1: int, m1: int, m: int) -> List[Fraction]:
    """Paired-summand ratios whose chain 1 < r_0 < r_1 < ... proves positivity.

    For even probe order m the pairs sit at l3 = l1 -+ (2k+1); for odd m at
    l3 = l1 -+ 2k with k >= 1.  Entries are exact rationals (pi cancels);
    ratios with a vanishing denominator are skipped.
    """
    ratios: List[Fraction] = []
    if m % 2 == 0:
        offsets = [2 * k + 1 for k in range((m - 2) // 2 + 1)]
    else:
        offsets = [2 * k for k in range(1, (m - 1) // 2 + 1)]
    for off in offsets:
        num = _probe_g_squared(l1, m1, m, l1 - off) * (_turn(l1) - _turn(l1 - off))
        den = _probe_g_squared(l1, m1, m, l1 + off) * (_turn(l1 + off) - _turn(l1))
        if den == 0:
            continue
        ratios.append(num / den)
    return ratios


@dataclass
class TheoremScan:
    """Exact positivity sweep of the main theorem plus its proof chains."""

    l_max: int
    checked_pairs: int = 0
    checked_wave_pairs: int = 0
    checked_zonal: int = 0
    checked_chains: int = 0
    failures: List[str] = field(default_factory=list)
    extended_nonpositive: List[Tuple[int, int, int]] = field(default_factory=list)
    extended_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def theorem_scan(l_max: int) -> TheoremScan:
    """Verify both positivity families exactly up to l_max.

    Part one: MC(e_{l1 m1}, e_{m -m}) > 0 for 1 < m1 <= l1, 2 <= m <= m1.
    Part two: MC(e_{l1 1}, e_{l2 1}) > 0 for 2 <= l2 < l1.  Also checks the
    monotone proof chains, the nonpositivity of all zonal criteria, and
    reports (without asserting) the conjectured range m <= 2 m1 - 2.
    """
    if l_max < 3:
        raise ValueError("requires l_max >= 3")
    scan = TheoremScan(l_max)
    for l1 in range(2, l_max + 1):
        for m1 in range(2, l1 + 1):
            for m in range(2, m1 + 1):
                report = mc_flat(HarmonicIndex(l1, m1), HarmonicIndex(m, -m))
                scan.checked_pairs += 1
                if _sign(report.flat_over_pi) <= 0:
                    scan.failures.append(f"MC(e_{{{l1} {m1}}}, e_{{{m} {-m}}}) not positive")
                chain = positivity_chain(l1, m1, m)
                scan.checked_chains += len(chain)
                if any(r <= 1 for r in chain):
                    scan.failures.append(f"positivity chain not > 1 for ({l1},{m1},{m})")
                if any(r2 <= r1 for r1, r2 in zip(chain, chain[1:])):
                    scan.failures.append(f"positivity chain not increasing for ({l1},{m1},{m})")
            for m in range(m1 + 1, 2 * m1 - 1):
                scan.extended_checked += 1
                report = mc_flat(HarmonicIndex(l1, m1), HarmonicIndex(m, -m))
                if _sign(report.flat_over_pi) <= 0:
                    scan.extended_nonpositive.append((l1, m1, m))
    for l1 in range(3, l_max + 1):
        for l2 in range(2, l1):
            report = mc_flat(HarmonicIndex(l1, 1), HarmonicIndex(l2, 1))
            scan.checked_wave_pairs += 1
            if _sign(report.flat_over_pi) <= 0:
                scan.failures.append(f"MC(e_{{{l1} 1}}, e_{{{l2} 1}}) not positive")
    for l1 in range(1, l_max + 1):
        for l2 in range(1, l_max + 1):
            for m2 in range(-l2, l2 + 1):
                report = mc_flat(HarmonicIndex(l1, 0), HarmonicIndex(l2, m2))
                scan.checked_zonal += 1
                if _sign(report.flat_over_pi) > 0:
                    scan.failures.append(f"zonal MC(e_{{{l1} 0}}, e_{{{l2} {m2}}}) positive")
    return scan
