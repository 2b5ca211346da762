"""Misiolek criterion in flat, Coriolis, zonal-ratio and Rossby-Haurwitz form.

Every criterion value is carried exactly: flat criteria are rationals over
pi, the Coriolis correction for zonal flows adds a rotation rate times a
structure constant (a radical over sqrt(pi)), and wave criteria stay fully
rational once amplitudes are taken exactly.  Every float here (a
criterion value's, a critical ratio, a wave threshold) is its exact value
correctly rounded by ``exact.to_double``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .checks import SuiteResult
from .exact import Frozen, SignedSqrtRational, Term, to_double
from .structure import HarmonicIndex, g_real
from .wigner import _parity

Numeric = Union[int, float, Fraction]


class OrderCollisionError(ValueError):
    """Perturbation orders coincide, outside the additivity hypothesis."""


class CriterionDefect(AssertionError):
    """An exact identity of the criterion failed; this is a library defect."""


def _rational_terms(x: Fraction, pi_exp: int) -> List[Term]:
    """x * pi**pi_exp as its nonzero terms: one, or none for a zero x."""
    return [(1 if x > 0 else -1, abs(x.numerator), x.denominator, False, pi_exp)] if x else []


def _turn(l: int) -> int:
    """Spectral weight l(l+1) of the degree-l Laplacian eigenspace."""
    return l * (l + 1)


class MCValue(Frozen):
    """Exact scalar  rational + over_pi/pi + root/sqrt(pi).

    The three components are linearly independent over the rationals, so the
    representation is canonical and field equality is value equality.
    """

    __slots__ = _fields = ("rational", "over_pi", "root_over_sqrt_pi")

    def __init__(self, rational: Fraction = Fraction(0), over_pi: Fraction = Fraction(0),
                 root_over_sqrt_pi: SignedSqrtRational = SignedSqrtRational.zero()) -> None:
        set_rational, set_over_pi, set_root = self._writers
        set_rational(self, rational)
        set_over_pi(self, over_pi)
        set_root(self, root_over_sqrt_pi)

    def __add__(self, other: "MCValue") -> "MCValue":
        if not self.root_over_sqrt_pi.is_zero() and not other.root_over_sqrt_pi.is_zero():
            raise ValueError("sum of two distinct radicals is not representable")
        root = self.root_over_sqrt_pi if other.root_over_sqrt_pi.is_zero() else other.root_over_sqrt_pi
        return MCValue(self.rational + other.rational, self.over_pi + other.over_pi, root)

    def scale(self, factor: Numeric) -> "MCValue":
        c = Fraction(factor)
        return MCValue(self.rational * c, self.over_pi * c, self.root_over_sqrt_pi.scale(c))

    def is_zero(self) -> bool:
        return self.rational == 0 and self.over_pi == 0 and self.root_over_sqrt_pi.is_zero()

    def terms(self) -> List[Term]:
        """The nonzero terms of the value: rational, over pi, root over sqrt(pi)."""
        return (_rational_terms(self.rational, 0) + _rational_terms(self.over_pi, -1)
                + self.root_over_sqrt_pi.terms(-0.5))

    def to_float(self) -> float:
        """The value correctly rounded; OverflowError if it leaves double range."""
        return to_double(self.terms())


class MCSummand(Frozen):
    """Contribution of one output degree l3: g^2 * (l1(l1+1) - l3(l3+1)).

    ``num/den`` is g^2 * pi as plain integers in lowest terms with ``den > 0``;
    the constructor trusts the caller for that, as ``g_real`` already returns
    its radicand reduced.  Summands are immutable, like the reports that
    hold them.
    """

    __slots__ = _fields = ("l3", "num", "den", "weight")

    def __init__(self, l3: int, num: int, den: int, weight: int) -> None:
        set_l3, set_num, set_den, set_weight = self._writers
        set_l3(self, l3)
        set_num(self, num)
        set_den(self, den)
        set_weight(self, weight)

    @classmethod
    def reduced(cls, l3: int, num: int, den: int, weight: int) -> "MCSummand":
        """Summand from any ``num >= 0``, ``den > 0``, reduced with one gcd."""
        g = math.gcd(num, den)
        return cls(l3, num // g, den // g, weight)

    @property
    def g_squared_over_pi(self) -> Fraction:
        return Fraction(self.num, self.den)


def _flat_sum(summands: Sequence[MCSummand]) -> Tuple[int, int]:
    """Sum of the summand contributions as ``(num, den)``, over one common ``den > 0``.

    Left unreduced: the sum's sign is that of ``num``, read without a gcd.
    """
    num, den = 0, 1
    for s in summands:
        num = num * s.den + s.num * s.weight * den
        den *= s.den
    return num, den


def _flat_summands(a: HarmonicIndex, b: HarmonicIndex) -> Tuple[MCSummand, ...]:
    """The nonzero summands of MC(e_a, e_b), in ascending l3.

    Every criterion reads its summands here, so the degree rule is stated
    here once: e_lm = grad-perp Y_lm vanishes for l = 0, so both degrees
    must be >= 1, or ValueError is raised.
    """
    if a.l < 1 or b.l < 1:
        raise ValueError("both degrees must be >= 1")
    l1, m1, l2, m2 = a.l, a.m, b.l, b.m
    m3 = -(m1 + m2)
    turn = _turn(l1)
    out = []
    # g vanishes when l1 + l2 + l3 is even, so only every other l3 is visited.
    for l3 in range(abs(l1 - l2) + 1, l1 + l2, 2):
        root = g_real(l1, m1, l2, m2, l3, m3)
        if root.sign:
            out.append(MCSummand(l3, root.num, root.den, turn - _turn(l3)))
    return tuple(out)


_ZERO_VALUE = MCValue()


class MCReport(Frozen):
    """Exact criterion evaluation, stored as its parts.

    The value is the summand sum over pi, plus the rational ``constant``,
    plus the Coriolis term ``rotation * coriolis_slope``; every other
    attribute is derived from the four fields, so
    ``flat_over_pi / pi + constant + coriolis_term == value`` exactly.
    """

    __slots__ = _fields = ("summands", "constant", "coriolis_slope", "rotation")

    def __init__(self, summands: Tuple[MCSummand, ...], constant: Fraction = Fraction(0),
                 coriolis_slope: MCValue = _ZERO_VALUE, rotation: Fraction = Fraction(0)) -> None:
        set_summands, set_constant, set_slope, set_rotation = self._writers
        set_summands(self, summands)
        set_constant(self, constant)
        set_slope(self, coriolis_slope)
        set_rotation(self, rotation)

    @property
    def flat_over_pi(self) -> Fraction:
        """Sum of the summand contributions, reduced once."""
        return Fraction(*_flat_sum(self.summands))

    @property
    def coriolis_term(self) -> MCValue:
        # Without a rotation or a slope the term is zero: skip its arithmetic.
        if self.rotation and not self.coriolis_slope.is_zero():
            return self.coriolis_slope.scale(self.rotation)
        return _ZERO_VALUE

    @property
    def value(self) -> MCValue:
        value = MCValue(self.constant, self.flat_over_pi)
        coriolis = self.coriolis_term
        return value if coriolis is _ZERO_VALUE else value + coriolis


def mc_flat(a: HarmonicIndex, b: HarmonicIndex) -> MCReport:
    """Criterion along the steady flow of Y_a probed by Y_b, no rotation."""
    return MCReport(_flat_summands(a, b))


def _exact_pair(x: Union[complex, Numeric, Tuple[Numeric, Numeric]]) -> Tuple[Fraction, Fraction]:
    """(Re x, Im x) as exact Fractions, from a complex, a real or a pair (re, im)."""
    re, im = x if isinstance(x, tuple) else (x.real, x.imag)
    return Fraction(re), Fraction(im)


def _abs_squared(x: Union[complex, Numeric, Tuple[Numeric, Numeric]]) -> Fraction:
    re, im = _exact_pair(x)
    return re * re + im * im


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
        summands = _flat_summands(a, idx)  # before the skip: a zero weight keeps the degree rule
        weight_sq = _abs_squared(x)
        if weight_sq == 0:
            continue
        p, q = weight_sq.numerator, weight_sq.denominator
        for s in summands:
            prev = merged.get(s.l3)
            num, den = s.num * p, s.den * q
            if prev is not None:
                num, den = prev.num * den + num * prev.den, prev.den * den
            merged[s.l3] = MCSummand.reduced(s.l3, num, den, s.weight)
    return MCReport(tuple(sorted(merged.values(), key=lambda s: s.l3)))


def coriolis_slope(a: HarmonicIndex, b: HarmonicIndex) -> MCValue:
    """Derivative of the rotated criterion in the rotation rate.

    Equals (-1)^{m2} m2 g^{l2 -m2}_{l1 m1 l2 m2}; nonzero only for zonal
    flows (m1 = 0) probed by a non-zonal harmonic.
    """
    g = g_real(a.l, a.m, b.l, b.m, b.l, -b.m)
    return MCValue(root_over_sqrt_pi=g.scale(_parity(b.m) * b.m))


def mc_coriolis(a: HarmonicIndex, b: HarmonicIndex, rotation: Numeric) -> MCReport:
    """Criterion on the rotating sphere: flat value, self-coupling penalty
    -m1^2 when probe equals flow, and the rotation term a*(-1)^{m2} m2 g."""
    delta = Fraction(-a.m * a.m) if a == b else Fraction(0)
    return MCReport(_flat_summands(a, b), delta, coriolis_slope(a, b), Fraction(rotation))


def critical_ratio(l1: int, l2: int, m2: int) -> dict:
    """Critical rotation rate -MC(e_{l1 0}, e_{l2 m2}) / ((-1)^{m2} m2 g), as a record.

    The record is ``{"l1", "l2", "m2", "status"}``.  Status "ok" adds the
    float ``"ratio"`` and its ``"direction"``: ">" when rates above the
    ratio give conjugate points, "<" when rates below do.  Status
    "undefined" marks a vanishing denominator and carries no ratio, so it
    is never read as numeric zero.

    With MC = F/pi and the slope s*sqrt(rho/pi), the ratio is
    -s*F/sqrt(pi*rho), that is +-sqrt(X/pi) for the exact rational
    X = F^2/rho; the float is that value correctly rounded (a zero F gives
    a zero of the sign that -F/s has).  A ratio outside double range raises
    OverflowError.
    """
    if not 1 <= m2 <= l2:
        raise ValueError("requires 1 <= m2 <= l2")
    if l1 < 1:
        raise ValueError("requires l1 >= 1")
    cell = {"l1": l1, "l2": l2, "m2": m2, "status": "undefined"}
    slope = coriolis_slope(HarmonicIndex(l1, 0), HarmonicIndex(l2, m2))
    denom = slope.root_over_sqrt_pi
    if denom.is_zero():
        return cell
    flat = mc_flat(HarmonicIndex(l1, 0), HarmonicIndex(l2, m2)).flat_over_pi
    sign = -denom.sign * ((flat > 0) - (flat < 0))
    if sign:
        # sign * sqrt(X / pi) with X = F^2 / rho, left unreduced.
        x_num, x_den = flat.numerator ** 2 * denom.den, flat.denominator ** 2 * denom.num
        try:
            ratio = to_double([(sign, x_num, x_den, True, -0.5)])
        except OverflowError:
            raise OverflowError(f"critical ratio for ({l1}, {l2}, {m2}) exceeds double range") from None
    else:
        ratio = math.copysign(0.0, -denom.sign)
    cell.update(status="ok", ratio=ratio, direction=">" if denom.sign > 0 else "<")
    return cell


def critical_table(l1: int, l2_max: int = 6) -> Dict[Tuple[int, int], dict]:
    """Full ratio grid ``{(l2, m2): record}`` over 1 <= l2, m2 <= l2_max, row-major.

    Each record is that of ``critical_ratio``, which also refuses l1 < 1;
    cells with m2 > l2 have status "not-applicable", never conflated with
    the undefined (vanishing denominator) cells.  Even l1 gives an
    all-undefined grid because the rotation term then vanishes identically.
    """
    if l2_max < 1:
        raise ValueError("requires l2_max >= 1")
    return {
        (l2, m2): {"l1": l1, "l2": l2, "m2": m2, "status": "not-applicable"} if m2 > l2
        else critical_ratio(l1, l2, m2)
        for l2 in range(1, l2_max + 1) for m2 in range(1, l2_max + 1)
    }


class RHWave(Frozen):
    """Traveling wave  A*Y_{l1 m1}(lambda - omega*t, mu) - C*mu, held exactly.

    The wave is its parameters as exact Fractions: ``A`` as (Re A, Im A),
    ``C``, ``alpha2`` and the rotation rate ``a``.  ``omega`` follows from
    the dispersion relation, so l(l+1) + alpha2 = 0 is rejected.
    """

    __slots__ = _fields = ("A", "C", "index", "alpha2", "a")

    def __init__(self, A: Union[complex, Numeric, Tuple[Numeric, Numeric]], C: Numeric,
                 index: HarmonicIndex, alpha2: Numeric = 0, a: Numeric = 0) -> None:
        alpha2 = Fraction(alpha2)
        if _turn(index.l) + alpha2 == 0:
            raise ValueError("no phase speed: l(l+1) + alpha2 vanishes")
        set_A, set_C, set_index, set_alpha2, set_a = self._writers
        set_A(self, _exact_pair(A))
        set_C(self, Fraction(C))
        set_index(self, index)
        set_alpha2(self, alpha2)
        set_a(self, Fraction(a))

    @property
    def omega(self) -> Fraction:
        """Phase speed from  omega (l(l+1) + alpha2) = (l(l+1) - 2) C + a."""
        spectral = _turn(self.index.l)
        return ((spectral - 2) * self.C + self.a) / (spectral + self.alpha2)


def rhw_mc(wave: RHWave, probe: HarmonicIndex) -> MCReport:
    """Criterion along a Rossby-Haurwitz wave, exact in |A|^2, C and a.

    |A|^2 MC(e_{l1 m1}, e_{l2 m2}) + C^2 m2^2 (2 - l2(l2+1))
    - |A|^2 m1^2 [probe == wave index] - a m2^2 C; the traveling phase drops
    out since |exp(-i m1 omega t)| = 1, and with it omega and alpha2.  The
    report's ``constant`` is C^2 m2^2 (2 - l2(l2+1)) - |A|^2 m1^2 [probe == wave index].
    """
    if wave.index.m == 0:
        raise ValueError("wave order m1 must be nonzero")
    amp_sq = _abs_squared(wave.A)
    m2 = probe.m
    constant = wave.C ** 2 * m2 ** 2 * (2 - _turn(probe.l))
    if probe == wave.index:
        constant -= amp_sq * wave.index.m ** 2
    slope = MCValue(rational=-Fraction(m2 ** 2) * wave.C)
    p, q = amp_sq.numerator, amp_sq.denominator
    summands = tuple(
        MCSummand.reduced(s.l3, s.num * p, s.den * q, s.weight)
        for s in _flat_summands(wave.index, probe)
    )
    return MCReport(summands, constant, slope, wave.a)


def rhw_threshold(l1: int, m1: int, m: int, K: Numeric = 0.0) -> float:
    """Minimal |A|^2/C^2 making the wave criterion positive at rate a = -K*C.

    Equals pi * R with R = m^2 (m(m+1) - 2 - K) / flat_over_pi, where
    MC(e_{l1 m1}, e_{m -m}) = flat_over_pi / pi; the hypothesis
    2 <= m <= m1 <= l1 keeps the denominator positive.  R is exact (K enters
    as the rational its value is) and the float is pi * R correctly rounded.
    A finite K whose threshold overflows a float raises OverflowError.
    """
    if not 2 <= m <= m1 <= l1:
        raise ValueError("requires 2 <= m <= m1 <= l1")
    if not math.isfinite(K):
        raise ValueError("requires a finite K")
    if K < 0:
        raise ValueError("requires K >= 0")
    flat_over_pi = mc_flat(HarmonicIndex(l1, m1), HarmonicIndex(m, -m)).flat_over_pi
    if flat_over_pi <= 0:
        raise CriterionDefect(f"criterion not positive for ({l1},{m1}) vs ({m},{-m})")
    try:
        return to_double(_rational_terms(m * m * (_turn(m) - 2 - Fraction(K)) / flat_over_pi, 1))
    except OverflowError:
        raise OverflowError(f"threshold for K={K!r} exceeds double range") from None


def positivity_chain(l1: int, m: int, summands: Sequence[MCSummand]) -> List[Fraction]:
    """Paired-summand ratios whose chain 1 < r_0 < r_1 < ... proves positivity.

    ``summands`` are those of MC(e_{l1 m1}, e_{m -m}).  For even probe order
    m the pairs sit at l3 = l1 -+ (2k+1); for odd m at l3 = l1 -+ 2k with
    k >= 1.  Each ratio is the l3 = l1 - off contribution over minus the
    l3 = l1 + off one, an exact rational (pi cancels); ratios with a
    vanishing denominator are skipped.
    """
    by_l3 = {s.l3: s for s in summands}
    ratios: List[Fraction] = []
    if m % 2 == 0:
        offsets = [2 * k + 1 for k in range((m - 2) // 2 + 1)]
    else:
        offsets = [2 * k for k in range(1, (m - 1) // 2 + 1)]
    for off in offsets:
        high = by_l3.get(l1 + off)
        if high is None:
            continue
        low = by_l3.get(l1 - off)
        # The contributions' quotient as one Fraction: one gcd, not three.
        ratios.append(Fraction(low.num * low.weight * high.den, -high.num * high.weight * low.den)
                      if low else Fraction(0))
    return ratios


def check_probe_positivity(res: SuiteResult, l_max: int) -> None:
    """MC(e_{l1 m1}, e_{m -m}) > 0 for 2 <= m <= m1 <= l1 <= l_max, with its proof chain.

    One check per pair and one per chain ratio: each ratio exceeds 1 and
    the chain increases.
    """
    probes = [HarmonicIndex(m, -m) for m in range(l_max + 1)]
    for l1 in range(2, l_max + 1):
        for m1 in range(2, l1 + 1):
            flow = HarmonicIndex(l1, m1)
            for m in range(2, m1 + 1):
                report = mc_flat(flow, probes[m])
                res.checks += 1
                if _flat_sum(report.summands)[0] <= 0:
                    res.fail(f"MC(e_{{{l1} {m1}}}, e_{{{m} {-m}}}) not positive")
                chain = positivity_chain(l1, m, report.summands)
                res.checks += len(chain)
                if any(r <= 1 for r in chain):
                    res.fail(f"positivity chain not > 1 for ({l1},{m1},{m})")
                if any(r2 <= r1 for r1, r2 in zip(chain, chain[1:])):
                    res.fail(f"positivity chain not increasing for ({l1},{m1},{m})")


def check_order_one_positivity(res: SuiteResult, l_max: int) -> None:
    """MC(e_{l1 1}, e_{l2 1}) > 0 for 2 <= l2 < l1 <= l_max."""
    harmonics = {l: HarmonicIndex(l, 1) for l in range(2, l_max + 1)}
    for l1 in range(3, l_max + 1):
        for l2 in range(2, l1):
            report = mc_flat(harmonics[l1], harmonics[l2])
            res.checks += 1
            if _flat_sum(report.summands)[0] <= 0:
                res.fail(f"MC(e_{{{l1} 1}}, e_{{{l2} 1}}) not positive")


def check_zonal_nonpositivity(res: SuiteResult, l_max: int) -> None:
    """MC(e_{l1 0}, e_{l2 m2}) <= 0 for every zonal flow and probe of degree <= l_max."""
    probes = [HarmonicIndex(l2, m2) for l2 in range(1, l_max + 1) for m2 in range(-l2, l2 + 1)]
    for l1 in range(1, l_max + 1):
        flow = HarmonicIndex(l1, 0)
        for probe in probes:
            report = mc_flat(flow, probe)
            res.checks += 1
            if _flat_sum(report.summands)[0] > 0:
                res.fail(f"zonal MC(e_{{{l1} 0}}, e_{{{probe.l} {probe.m}}}) positive")
