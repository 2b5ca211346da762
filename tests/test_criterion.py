"""Misiolek criterion: flat, combinations, Coriolis, tables, waves, scan."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import misiolek.criterion
import misiolek.exact
import misiolek.suites
from misiolek.checks import SuiteResult
from misiolek.criterion import (
    MCReport,
    MCSummand,
    MCValue,
    OrderCollisionError,
    RHWave,
    check_order_one_positivity,
    check_probe_positivity,
    check_zonal_nonpositivity,
    coriolis_slope,
    critical_ratio,
    critical_table,
    mc_combination,
    mc_coriolis,
    mc_flat,
    positivity_chain,
    rhw_mc,
    rhw_threshold,
)
from misiolek.exact import SignedSqrtRational, to_double
from misiolek.oracle import QuadratureGrid
from misiolek.structure import HarmonicIndex as H
from misiolek.suites import check_reference_table, theorem_suite


def float_ulps(a, b):
    if a == b:
        return 0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def mp_value(value):
    """An MCValue at mpmath's working precision."""
    root = value.root_over_sqrt_pi
    return (mpmath.mpf(value.rational.numerator) / value.rational.denominator
            + mpmath.mpf(value.over_pi.numerator) / value.over_pi.denominator / mpmath.pi
            + root.sign * mpmath.sqrt(mpmath.mpf(root.num) / root.den / mpmath.pi))


def test_mc_value_algebra():
    v = MCValue(Fraction(2), Fraction(-3), SignedSqrtRational.of(1, Fraction(9, 4)))
    assert v.scale(2).rational == 4
    assert v.scale(2).root_over_sqrt_pi == SignedSqrtRational.of(1, 9)
    assert v.to_float() == pytest.approx(2 - 3 / math.pi + 1.5 / math.sqrt(math.pi), rel=1e-15)


def test_mc_value_float_refuses_an_overflowing_sum():
    # Both component floats are finite (1.7e308 and 1.7e308 / pi); their sum is not.
    big = Fraction(17 * 10**307)
    value = MCValue(big, big)
    assert math.isfinite(float(value.rational)) and math.isfinite(float(value.over_pi) / math.pi)
    with pytest.raises(OverflowError):
        value.to_float()
    assert MCValue(big, -big).to_float() == pytest.approx(1.7e308 * (1 - 1 / math.pi), rel=1e-15)


def test_mc_value_float_of_a_sum_whose_parts_leave_double_range():
    # 10**400 - floor(pi 10**400) / pi is the fractional part of pi 10**400
    # over pi; neither part has a float, and the sum is one double.
    with mpmath.workdps(450):
        floor = int(mpmath.floor(mpmath.pi * mpmath.mpf(10) ** 400))
    assert MCValue(Fraction(10 ** 400), Fraction(-floor)).to_float() == 0.10522455967671732


def test_flat_floats_are_correctly_rounded():
    # Every nonzero flat value of a flow of degree <= 12 against a probe of
    # degree <= 8, against mpmath at 60 digits: the sum of three rounded
    # parts missed 4,222 of these 12,622.
    values, off = 0, []
    with mpmath.workdps(60):
        for l1 in range(1, 13):
            for m1 in range(-l1, l1 + 1):
                for l2 in range(1, 9):
                    for m2 in range(-l2, l2 + 1):
                        value = mc_flat(H(l1, m1), H(l2, m2)).value
                        if value.is_zero():
                            continue
                        values += 1
                        if value.to_float() != float(mp_value(value)):
                            off.append((l1, m1, l2, m2))
    assert values == 12622 and off == []


def test_mc_flat_probe_degree_one_vanishes():
    for l1 in range(1, 13):
        for m1 in range(-l1, l1 + 1):
            for m2 in (-1, 0, 1):
                report = mc_flat(H(l1, m1), H(1, m2))
                assert report.value.is_zero()
                assert report.summands == () or all(s.weight == 0 for s in report.summands)


def test_mc_flat_flow_degree_one_nonpositive():
    for l2 in range(1, 13):
        for m2 in range(-l2, l2 + 1):
            for m1 in (-1, 0, 1):
                assert mc_flat(H(1, m1), H(l2, m2)).value.over_pi <= 0


def test_mc_flat_rigid_rotation_probe_value():
    # MC(e_{1 0}, e_{2 2}) = (3/(4 pi)) m2^2 (2 - l2(l2+1)) = -12/pi
    report = mc_flat(H(1, 0), H(2, 2))
    assert report.value.over_pi == -12
    assert report.value.rational == 0
    assert report.value.to_float() == pytest.approx(-12 / math.pi, rel=1e-15)


def test_mc_flat_positive_instance():
    report = mc_flat(H(3, 2), H(2, -2))
    assert report.value.over_pi == 10
    assert report.value.to_float() > 0


def test_mc_flat_requires_positive_degrees():
    with pytest.raises(ValueError):
        mc_flat(H(0, 0), H(2, 1))


@pytest.mark.parametrize("call", [
    lambda: mc_flat(H(3, 1), H(0, 0)),
    lambda: mc_coriolis(H(0, 0), H(2, 1), 1),
    lambda: mc_coriolis(H(3, 0), H(0, 0), 0),
    lambda: mc_combination(H(0, 0), H(2, 1), []),
    lambda: mc_combination(H(3, 1), H(0, 0), [(1, H(2, 1))]),
    lambda: mc_combination(H(3, 1), H(2, 1), [(1, H(0, 0))]),
    lambda: mc_combination(H(3, 1), H(2, 1), [(0, H(0, 0))]),
    lambda: rhw_mc(RHWave(A=1, C=1, index=H(3, 2)), H(0, 0)),
], ids=["mc_flat", "mc_coriolis-flow", "mc_coriolis-probe", "mc_combination-flow",
        "mc_combination-base", "mc_combination-perturbation", "mc_combination-zero-weight", "rhw_mc"])
def test_every_criterion_refuses_degree_zero_with_one_error(call):
    # e_lm vanishes for l = 0; no entry point returns a silent zero term for it.
    with pytest.raises(ValueError, match=r"^both degrees must be >= 1$"):
        call()


def test_mc_report_decomposition_consistency():
    report = mc_flat(H(4, 3), H(3, -2))
    contributions = (Fraction(s.num * s.weight, s.den) for s in report.summands)
    assert report.value.over_pi == report.flat_over_pi == sum(contributions)
    for s in report.summands:
        assert abs(4 - 3) + 1 <= s.l3 <= 4 + 3 - 1
        assert s.weight == 4 * 5 - s.l3 * (s.l3 + 1)
    assert float_ulps(report.value.to_float(), float(report.flat_over_pi) / math.pi) <= 4


def assert_order_negation_symmetric(a, b):
    """MC(a, b) == MC(-a, -b) exactly under global order negation."""
    assert mc_flat(a, b).value == mc_flat(H(a.l, -a.m), H(b.l, -b.m)).value, (a, b)


def test_mc_symmetry_negate():
    for a, b in (((3, 2), (2, -2)), ((5, 1), (4, 1)), ((4, 0), (3, 0))):
        assert_order_negation_symmetric(H(*a), H(*b))


def test_mc_combination_reductions():
    base = mc_flat(H(3, 2), H(2, -2))
    assert mc_combination(H(3, 2), H(2, -2), []).value == base.value
    assert mc_combination(H(3, 2), H(2, -2), [(0.0, H(3, -1))]).value == base.value


def test_mc_combination_additivity_exact():
    report = mc_combination(H(3, 2), H(2, -2), [(0.5 + 0.5j, H(3, -1)), (2.0, H(4, 0))])
    want = (
        mc_flat(H(3, 2), H(2, -2)).value.over_pi
        + Fraction(1, 2) * mc_flat(H(3, 2), H(3, -1)).value.over_pi
        + 4 * mc_flat(H(3, 2), H(4, 0)).value.over_pi
    )
    assert report.value.over_pi == want


def test_mc_combination_rejects_order_collision():
    with pytest.raises(OrderCollisionError):
        mc_combination(H(3, 2), H(2, -2), [(1.0, H(5, -2))])
    with pytest.raises(OrderCollisionError):
        mc_combination(H(3, 2), H(2, -2), [(1.0, H(3, 1)), (1.0, H(4, 1))])


def test_mc_combination_positivity_threshold():
    # MC(e_{3 2}, e_{2 -2} + x e_{3 -1}) > 0 iff |x|^2 < MC1 / (-MC2)
    mc1 = mc_flat(H(3, 2), H(2, -2)).value.over_pi
    mc2 = mc_flat(H(3, 2), H(3, -1)).value.over_pi
    assert mc1 == 10 and mc2 == Fraction(-2625, 11)
    threshold = mc1 / -mc2
    for scale, positive in ((0.999, True), (1.001, False)):
        x = math.sqrt(float(threshold)) * scale
        value = mc_combination(H(3, 2), H(2, -2), [(x, H(3, -1))]).value.to_float()
        assert (value > 0) == positive


def test_mc_coriolis_reduces_to_flat():
    flat = mc_flat(H(3, 2), H(2, -2))
    rotated = mc_coriolis(H(3, 2), H(2, -2), 0.0)
    assert rotated.value == flat.value
    assert rotated.coriolis_term.is_zero()
    # different indices: both correction terms vanish for every rate
    spun = mc_coriolis(H(3, 2), H(2, -2), 17.5)
    assert spun.value == flat.value


def test_mc_coriolis_nonzonal_slope_vanishes():
    # nonzero flow order kills the rotation term for every rate
    for a, b in (((3, 2), (2, 1)), ((4, 1), (4, 1)), ((5, -3), (5, 3))):
        assert coriolis_slope(H(*a), H(*b)).is_zero()
    assert not coriolis_slope(H(3, 0), H(2, 1)).is_zero()


def test_mc_coriolis_self_probe_penalty():
    report = mc_coriolis(H(4, 3), H(4, 3), 2.5)
    assert report.constant == -9
    assert report.value.rational == -9
    assert report.value.over_pi == 0  # bracket of a field with itself vanishes


def test_mc_coriolis_affine_in_rate():
    reports = [mc_coriolis(H(3, 0), H(2, 1), a) for a in (0, 1, 2)]
    slopes = {r.coriolis_slope.root_over_sqrt_pi for r in reports}
    assert len(slopes) == 1
    assert reports[0].coriolis_term.is_zero()
    assert reports[1].coriolis_term == reports[0].coriolis_slope
    assert reports[2].coriolis_term == reports[0].coriolis_slope.scale(2)
    flat_parts = {(r.value.rational, r.value.over_pi) for r in reports}
    assert len(flat_parts) == 1


def test_mc_coriolis_table_cell_sign():
    # reference cell (l1, l2, m2) = (3, 2, 1) has critical rate 2.983
    assert mc_coriolis(H(3, 0), H(2, 1), 5.0).value.to_float() > 0
    assert mc_coriolis(H(3, 0), H(2, 1), 2.9).value.to_float() < 0


def test_critical_ratio_reference_cells():
    cell = critical_ratio(3, 2, 1)
    assert list(cell) == ["l1", "l2", "m2", "status", "ratio", "direction"]
    assert (cell["l1"], cell["l2"], cell["m2"], cell["status"], cell["direction"]) == (3, 2, 1, "ok", ">")
    assert cell["ratio"] == pytest.approx(2.983, rel=5e-3)
    cell = critical_ratio(3, 3, 3)
    assert cell["direction"] == "<"
    assert cell["ratio"] == pytest.approx(-20.35, rel=5e-3)
    assert critical_ratio(5, 2, 1) == {"l1": 5, "l2": 2, "m2": 1, "status": "undefined"}
    cell = critical_ratio(7, 6, 6)
    assert cell["direction"] == "<"
    assert cell["ratio"] == pytest.approx(-569.9, rel=5e-3)


def test_critical_ratio_is_correctly_rounded():
    # -s F / sqrt(pi rho), with MC = F/pi and slope s sqrt(rho/pi), against
    # mpmath at 40 digits on every "ok" cell of the odd flows' degree-8
    # tables.  The ratio formed from four rounded floats was off on 105 of them.
    cells, off = 0, []
    for l1 in range(1, 16, 2):
        for (l2, m2), cell in critical_table(l1, 8).items():
            if cell["status"] != "ok":
                continue
            cells += 1
            flat = mc_flat(H(l1, 0), H(l2, m2)).flat_over_pi
            slope = coriolis_slope(H(l1, 0), H(l2, m2)).root_over_sqrt_pi
            with mpmath.workdps(40):
                root = slope.sign * mpmath.sqrt(mpmath.pi * slope.num / slope.den)
                want = float(-mpmath.mpf(flat.numerator) / flat.denominator / root)
            if cell["ratio"] != want:
                off.append((l1, l2, m2))
    assert cells == 203 and off == []


def test_critical_ratio_of_a_vanishing_flat_value_is_a_signed_zero():
    # MC(e_{1 0}, e_{1 1}) = 0: the ratio is -0 / s, a zero of sign -s.
    cell = critical_ratio(1, 1, 1)
    assert cell["ratio"] == 0 and math.copysign(1, cell["ratio"]) == -1 and cell["direction"] == ">"


def test_critical_ratio_outside_double_range_raises(monkeypatch):
    def huge(a, b):
        return MCReport((MCSummand(a.l + b.l - 1, 10 ** 400, 1, -1),))

    monkeypatch.setattr(misiolek.criterion, "mc_flat", huge)
    with pytest.raises(OverflowError, match="critical ratio"):
        critical_ratio(3, 2, 1)


def test_sqrt_over_pi_is_correctly_rounded():
    def sqrt_over_pi(x):
        return to_double([(1, x.numerator, x.denominator, True, -0.5)])

    for x in (Fraction(1), Fraction(2, 3), Fraction(10 ** 40, 7), Fraction(1, 10 ** 300),
              Fraction(3 ** 200, 2 ** 100), Fraction(10 ** 600, 3), Fraction(1, 10 ** 630)):
        with mpmath.workdps(60):
            want = float(mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator / mpmath.pi))
        assert sqrt_over_pi(x) == want, x
    with pytest.raises(OverflowError):
        sqrt_over_pi(Fraction(10 ** 700))


def test_floats_near_a_critical_rate_carry_the_exact_sign():
    # At rates within 3e-15 of a critical ratio the value nearly cancels; its
    # float is the exact value correctly rounded, so it has the exact sign.
    # The sum of three rounded parts missed all 364 of these, and had the
    # wrong sign or a zero for 36.
    # mc --a 3 0 --b 2 1 --rotation 2.9854106607209228 printed 0.0.
    rates = 0
    with mpmath.workdps(60):
        for l1 in (3, 5, 7):
            for (l2, m2), cell in critical_table(l1, 6).items():
                if cell["status"] != "ok":
                    continue
                for j in range(-3, 4):
                    rate = Fraction(repr(cell["ratio"] * (1 + j * 1e-15)))
                    value = mc_coriolis(H(l1, 0), H(l2, m2), rate).value
                    want = mp_value(value)
                    got = value.to_float()
                    assert got == float(want) and (got > 0) == (want > 0), (l1, l2, m2, rate)
                    rates += 1
    assert rates == 364
    value = mc_coriolis(H(3, 0), H(2, 1), Fraction("2.9854106607209228")).value
    assert value.to_float() == -4.2390507108542164e-16


def test_critical_ratio_validates_orders():
    with pytest.raises(ValueError):
        critical_ratio(3, 2, 0)
    with pytest.raises(ValueError):
        critical_ratio(3, 2, 3)


def test_critical_table_even_flow_all_undefined():
    table = critical_table(4, l2_max=5)
    assert all("ratio" not in cell for cell in table.values())
    assert {cell["status"] for cell in table.values()} == {"undefined", "not-applicable"}


def test_critical_table_degree_one_flow():
    # l1 = 1: the paired constant is the rotation generator itself, so the g
    # cancels and every in-range cell is sqrt(3/(4 pi)) (l2(l2+1) - 2) with
    # direction ">"; the (1, 1) cell degenerates to a zero threshold.
    table = critical_table(1, l2_max=3)
    for (l2, m2), cell in table.items():
        if m2 > l2:
            assert cell == {"l1": 1, "l2": l2, "m2": m2, "status": "not-applicable"}
            continue
        assert cell["status"] == "ok" and cell["direction"] == ">"
        want = math.sqrt(3 / (4 * math.pi)) * (l2 * (l2 + 1) - 2)
        assert cell["ratio"] == pytest.approx(want, abs=1e-12)


def test_critical_table_shape_and_signs():
    table = critical_table(3, l2_max=5)
    assert list(table) == [(l2, m2) for l2 in range(1, 6) for m2 in range(1, 6)]  # row-major
    defined = [c for c in table.values() if c["status"] == "ok"]
    assert len(defined) == 14
    for cell in defined:
        assert type(cell["ratio"]) is float
        assert (cell["direction"] == ">") == (cell["ratio"] >= 0)
    assert table[2, 3]["status"] == "not-applicable"
    assert all(key == (c["l2"], c["m2"]) and c["l1"] == 3 for key, c in table.items())
    for l2, m2 in ((6, 1), (0, 1), (1, 0), (1, 6)):
        with pytest.raises(KeyError):
            table[l2, m2]


def test_rhw_solution_constructor():
    # Every wave is a solution: omega satisfies the dispersion relation
    # omega (l(l+1) + alpha2) = (l(l+1) - 2) C + a with exact equality.
    for alpha2, a in ((Fraction(3, 2), -0.25), (0, Fraction(7, 3)), (-11.5, 2)):
        wave = RHWave(A=1 + 2j, C=0.5, index=H(3, 2), alpha2=alpha2, a=a)
        assert type(wave.omega) is Fraction
        assert wave.omega * (12 + Fraction(alpha2)) == 10 * Fraction(1, 2) + Fraction(a)
    assert RHWave(A=1, C=1, index=H(1, 1)).omega == 0  # l(l+1) = 2: the C term vanishes
    assert RHWave(A=1, C=1, index=H(3, 2), a=2).omega == 1


def test_rhw_solution_rejects_a_vanishing_dispersion_denominator():
    # l(l+1) + alpha2 = 0 leaves no phase speed.
    with pytest.raises(ValueError, match=r"no phase speed: l\(l\+1\) \+ alpha2 vanishes"):
        RHWave(A=1 + 0j, C=1.0, index=H(0, 0))
    with pytest.raises(ValueError, match="no phase speed"):
        RHWave(A=1 + 0j, C=1.0, index=H(3, 2), alpha2=-12.0)
    with pytest.raises(ValueError, match="no phase speed"):
        RHWave(A=1 + 0j, C=1.0, index=H(2, 1), alpha2=Fraction(-6))


def test_rhw_wave_is_exact_parameters():
    # Float input converts exactly, so a float wave and its Fraction twin are
    # one value and give one report; no field holds a float.
    floats = RHWave(A=0.1 - 0.75j, C=0.3, index=H(4, 3), alpha2=0.5, a=-1.25)
    twin = RHWave(A=(Fraction(0.1), Fraction(-3, 4)), C=Fraction(0.3), index=H(4, 3),
                  alpha2=Fraction(1, 2), a=Fraction(-5, 4))
    assert floats == twin and floats.A == (Fraction(0.1), Fraction(-3, 4))
    assert all(type(x) is Fraction for x in (*floats.A, floats.C, floats.alpha2, floats.a))
    assert RHWave(A=3, C=1, index=H(2, 1)).A == (3, 0)
    for probe in (H(4, 3), H(2, -2), H(1, 1), H(5, 0)):
        assert rhw_mc(floats, probe) == rhw_mc(twin, probe)


def test_rhw_alpha2_drops_out_of_the_criterion():
    still = RHWave(A=1 - 2j, C=Fraction(3, 4), index=H(5, 3), a=Fraction(-1, 2))
    deformed = RHWave(A=1 - 2j, C=Fraction(3, 4), index=H(5, 3), alpha2=Fraction(7, 3), a=Fraction(-1, 2))
    assert still.omega != deformed.omega
    for probe in (H(5, 3), H(3, -3), H(4, 1), H(1, -1), H(6, 0)):
        assert rhw_mc(still, probe) == rhw_mc(deformed, probe)


def test_rhw_rejects_zonal_wave():
    wave = RHWave(A=1 + 0j, C=1.0, index=H(3, 0))
    with pytest.raises(ValueError):
        rhw_mc(wave, H(2, 1))


def test_rhw_degree_one_probe_gives_k_c_squared():
    # probe e_{1 m2} with a = -K C: exactly K C^2 for |m2| = 1; the rate is
    # formed as an exact product so the identity is not lost to rounding
    for K, C in ((2.0, 1.0), (0.75, 0.7), (3.0, -1.25)):
        wave = RHWave(A=1 + 1j, C=C, index=H(3, 2), a=-Fraction(K) * Fraction(C))
        for m2 in (-1, 1):
            report = rhw_mc(wave, H(1, m2))
            assert report.value.over_pi == 0
            assert report.value.rational == Fraction(K) * Fraction(C) ** 2
        assert rhw_mc(wave, H(1, 0)).value.is_zero()


def test_rhw_zonal_only_wave_part():
    # A = 0, a = 0: C^2 m2^2 (2 - l2(l2+1))
    wave = RHWave(A=0j, C=1.0, index=H(3, 2))
    report = rhw_mc(wave, H(4, 2))
    assert report.value.rational == -72
    assert report.value.over_pi == 0
    assert rhw_mc(wave, H(1, 1)).value.is_zero()


def test_rhw_self_probe_penalty_term():
    wave = RHWave(A=2 + 0j, C=0.0, index=H(3, 2))
    report = rhw_mc(wave, H(3, 2))
    assert report.constant == -16
    assert report.value.rational == -16


def test_rhw_coriolis_gain_is_exact():
    # a = -K C exceeds the flat wave criterion by exactly K m2^2 C^2
    for (l1, m1), (l2, m2), K, C in (((3, 2), (2, -2), 1.5, 2.0), ((5, 3), (3, -3), 4.0, 0.5)):
        still = RHWave(A=1 + 0j, C=C, index=H(l1, m1), a=0.0)
        spun = RHWave(A=1 + 0j, C=C, index=H(l1, m1), a=-K * C)
        gain = rhw_mc(spun, H(l2, m2)).value.rational - rhw_mc(still, H(l2, m2)).value.rational
        assert gain == Fraction(K) * m2 ** 2 * Fraction(C) ** 2


def test_rhw_threshold_properties():
    base = rhw_threshold(3, 2, 2, K=0.0)
    assert base == pytest.approx(4 * (6 - 2) / (10 / math.pi), rel=1e-12)
    assert rhw_threshold(3, 2, 2, K=1.0) < base  # decreasing in K
    assert rhw_threshold(3, 2, 2, K=4.0) == 0.0  # K = m(m+1) - 2 kills the numerator
    with pytest.raises(ValueError):
        rhw_threshold(3, 2, 1)
    with pytest.raises(ValueError):
        rhw_threshold(3, 4, 2)
    # A finite K whose threshold leaves the float range raises, never -inf:
    # the threshold is 4 pi (4 - K) / 10, so K = 1e308 stays in range.
    assert rhw_threshold(3, 2, 2, K=1e308) == -1.2566370614359173e308
    with pytest.raises(OverflowError):
        rhw_threshold(3, 2, 2, K=1.5e308)


@pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
def test_rhw_threshold_rejects_non_finite_K(K):
    with pytest.raises(ValueError, match="finite K"):
        rhw_threshold(3, 2, 2, K=K)


def test_rhw_threshold_is_pi_times_the_exact_ratio_correctly_rounded():
    # pi R, R = m^2 (m(m+1) - 2 - K) / flat_over_pi, against mpmath at 40
    # digits, for K = 0.00 .. 3.25 by hundredths as the CLI reads them (exact
    # decimals) and as floats.  Before the threshold was formed from R, about
    # half of these floats were one ulp off.
    off = []
    for l1, m1, m in ((3, 2, 2), (4, 3, 2), (4, 3, 3), (5, 3, 2), (5, 3, 3), (6, 4, 4)):
        flat_over_pi = mc_flat(H(l1, m1), H(m, -m)).flat_over_pi
        for k in range(326):
            for K in (Fraction(k, 100), k / 100):
                ratio = m * m * (m * (m + 1) - 2 - Fraction(K)) / flat_over_pi
                with mpmath.workdps(40):
                    want = float(mpmath.pi * ratio.numerator / ratio.denominator)
                if rhw_threshold(l1, m1, m, K=K) != want:
                    off.append((l1, m1, m, K))
    assert off == []


def test_pi_bracket_holds_pi():
    for bits in (64, 128, 1024, 2048):
        lo, hi = misiolek.exact._pi_bracket(bits)
        with mpmath.workprec(bits + 64):
            assert lo <= mpmath.pi * 2 ** bits <= hi and hi - lo <= 2


@pytest.mark.parametrize("l1,m1,m", [(3, 2, 2), (5, 3, 2), (5, 3, 3)])
def test_rhw_threshold_separates_signs(l1, m1, m):
    for K in (0.0, 1.0):
        threshold = rhw_threshold(l1, m1, m, K=K)
        for eps, positive in ((1e-6, True), (-1e-6, False)):
            amp = math.sqrt(threshold * (1 + eps))
            wave = RHWave(A=amp, C=1.0, index=H(l1, m1), a=-K)
            value = rhw_mc(wave, H(m, -m)).value.to_float()
            assert (value > 0) == positive


def test_harmonic_velocity_norm():
    # |e_lm|^2 = integral of |grad Y_lm|^2 = l(l+1), from the grid's analytic
    # derivative fields; the integrand is a polynomial the grid integrates exactly.
    grid = QuadratureGrid.for_degree(6)
    s2 = (1 - grid.mu ** 2)[:, None]
    dA = grid.mu_weights[:, None] * grid.lam_weight
    for l in range(1, 7):
        for m in range(-l, l + 1):
            y = grid.harmonic(H(l, m))
            energy = np.sum((s2 * np.abs(y.d_mu) ** 2 + np.abs(1j * m * y.values) ** 2 / s2) * dA)
            assert energy == pytest.approx(l * (l + 1), rel=1e-12), (l, m)


def test_positivity_chain_monotone_instances():
    for l1, m1, m in ((4, 4, 4), (5, 4, 4), (6, 5, 5), (7, 6, 4)):
        chain = positivity_chain(l1, m, mc_flat(H(l1, m1), H(m, -m)).summands)
        assert chain, (l1, m1, m)
        assert all(r > 1 for r in chain)
        assert all(b > a for a, b in zip(chain, chain[1:]))


def test_theorem_blocks_small():
    blocks = (check_probe_positivity, check_order_one_positivity, check_zonal_nonpositivity)
    results = [SuiteResult("theorem", 6) for _ in blocks]
    for block, result in zip(blocks, results):
        block(result, 6)
        assert result.ok
    pairs = sum(m1 - 1 for l1 in range(2, 7) for m1 in range(2, l1 + 1))
    assert results[0].checks > pairs  # the proof chains add their ratios
    assert results[1].checks == 10  # (l1, l2) with 2 <= l2 < l1 <= 6
    assert results[2].checks == 6 * sum(2 * l2 + 1 for l2 in range(1, 7))
    suite = theorem_suite(6)
    assert (suite.checks, suite.failures) == (sum(r.checks for r in results), [])
    with pytest.raises(ValueError):
        theorem_suite(2)


def test_theorem_suite_leaves_out_the_conjectured_range(monkeypatch):
    honest = misiolek.criterion.mc_flat
    calls = []

    def counting(a, b):
        calls.append((a.l, a.m, b.l, b.m))
        return honest(a, b)

    monkeypatch.setattr(misiolek.criterion, "mc_flat", counting)
    assert theorem_suite(10).ok
    # 165 wave-probe pairs, 36 order-one pairs and 10 * 120 zonal pairs.
    assert len(calls) == 1401
    assert not any(m1 >= 2 and l2 == -m2 > m1 for _, m1, l2, m2 in calls)


def test_theorem_signs_are_the_integer_numerators(monkeypatch):
    # The theorem blocks read each sign from the unreduced summand sum; it is
    # the sign of the reduced flat_over_pi on every pair of the degree-10 sweep.
    honest = misiolek.criterion.mc_flat
    reports = []

    def recording(a, b):
        reports.append(honest(a, b))
        return reports[-1]

    monkeypatch.setattr(misiolek.criterion, "mc_flat", recording)
    assert theorem_suite(10).ok
    signs = []
    for report in reports:
        num, den = misiolek.criterion._flat_sum(report.summands)
        flat = report.flat_over_pi
        assert den > 0 and Fraction(num, den) == flat
        assert flat == sum((Fraction(s.num * s.weight, s.den) for s in report.summands), Fraction(0))
        signs.append((num > 0) - (num < 0))
        assert signs[-1] == (flat > 0) - (flat < 0)
    assert len(signs) == 1401 and set(signs) == {-1, 0, 1}


def test_theorem_blocks_fail_on_a_flipped_sum(monkeypatch):
    # Negated weights flip every flat sum: each asserted positivity fails, and
    # so does the zonal nonpositivity wherever the honest sum is negative.
    honest = misiolek.criterion.mc_flat

    def flipped(a, b):
        summands = honest(a, b).summands
        return MCReport(tuple(MCSummand(s.l3, s.num, s.den, -s.weight) for s in summands))

    monkeypatch.setattr(misiolek.criterion, "mc_flat", flipped)
    probe, order_one, zonal = (SuiteResult("theorem", 5) for _ in range(3))
    check_probe_positivity(probe, 5)
    check_order_one_positivity(order_one, 5)
    check_zonal_nonpositivity(zonal, 5)
    not_positive = [f for f in probe.failures if f.endswith("not positive")]
    assert len(not_positive) == sum(m1 - 1 for l1 in range(2, 6) for m1 in range(2, l1 + 1))
    assert len(order_one.failures) == order_one.checks == 6
    negative = sum(honest(H(l1, 0), H(l2, m2)).flat_over_pi < 0
                   for l1 in range(1, 6) for l2 in range(1, 6) for m2 in range(-l2, l2 + 1))
    assert len(zonal.failures) == negative > 0


def test_probe_positivity_fails_on_a_chain_with_equal_ratios(monkeypatch):
    # (4, 4, 4) is the one pair with l1 = m = 4 up to degree 4; its honest
    # chain is 4732/1375 < 20449/490, and a repeated first ratio is not increasing.
    honest = misiolek.criterion.positivity_chain

    def repeated(l1, m, summands):
        chain = honest(l1, m, summands)
        return chain[:1] * len(chain) if (l1, m) == (4, 4) else chain

    monkeypatch.setattr(misiolek.criterion, "positivity_chain", repeated)
    result = SuiteResult("theorem", 4)
    check_probe_positivity(result, 4)
    assert result.failures == ["positivity chain not increasing for (4,4,4)"]


def test_reference_table_fails_on_a_flipped_direction(monkeypatch):
    honest = misiolek.suites.critical_table

    def flipped(l1, l2_max):
        table = honest(l1, l2_max)
        table[2, 1] = dict(table[2, 1], direction="<")
        return table

    monkeypatch.setattr(misiolek.suites, "critical_table", flipped)
    result = SuiteResult("table", 7)
    check_reference_table(result, 3)
    assert result.failures == ["l1=3 cell (2,1) direction < vs sign of 2.983"]


@pytest.mark.parametrize("call", [1, 2], ids=["inside", "outside"])
def test_reference_table_fails_on_a_boundary_value_of_zero(monkeypatch, call):
    # The rate just inside the critical ratio (the cell's first call) must
    # give a value > 0 and the rate just outside one < 0; exactly 0.0 fails either.
    honest = misiolek.suites.mc_coriolis
    rates = []

    def zero_at_cell(a, b, rotation):
        if (b.l, b.m) == (2, 1):
            rates.append(rotation)
            if len(rates) == call:
                return MCReport(())
        return honest(a, b, rotation)

    monkeypatch.setattr(misiolek.suites, "mc_coriolis", zero_at_cell)
    assert MCReport(()).value.to_float() == 0.0
    result = SuiteResult("table", 7)
    check_reference_table(result, 3)
    assert result.failures == ["l1=3 cell (2,1) boundary sign pattern wrong"]


def test_scan_exclusions_hold():
    # the guarantee does not cover e_{2 1} probes; the criterion is indeed
    # nonpositive there, so the scan must not include those pairs
    assert mc_flat(H(2, 1), H(2, -2)).value.over_pi < 0
    assert mc_flat(H(3, 1), H(2, -2)).value.over_pi < 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(-7, 7), st.integers(1, 7), st.integers(-7, 7))
def test_order_negation_symmetry_property(l1, m1, l2, m2):
    if abs(m1) > l1 or abs(m2) > l2:
        return
    assert_order_negation_symmetric(H(l1, m1), H(l2, m2))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(-6, 6), st.integers(1, 6), st.integers(-6, 6),
       st.fractions(min_value=-50, max_value=50, max_denominator=8))
def test_float_is_the_exact_value_correctly_rounded(l1, m1, l2, m2, rate):
    if abs(m1) > l1 or abs(m2) > l2:
        return
    report = mc_coriolis(H(l1, m1), H(l2, m2), rate)
    with mpmath.workdps(60):
        assert report.value.to_float() == float(mp_value(report.value))
