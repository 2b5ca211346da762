"""Misiolek criterion: flat, combinations, Coriolis, tables, waves, scan."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from misiolek.criterion import (
    MCValue,
    OrderCollisionError,
    RHWave,
    conjugate_time,
    coriolis_slope,
    critical_ratio,
    critical_table,
    harmonic_velocity_norm,
    mc_combination,
    mc_coriolis,
    mc_flat,
    mc_symmetry_negate,
    positivity_chain,
    rhw_mc,
    rhw_threshold,
    theorem_scan,
)
from misiolek.exact import SignedSqrtRational
from misiolek.structure import HarmonicIndex as H


def float_ulps(a, b):
    if a == b:
        return 0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_mc_value_algebra():
    v = MCValue(Fraction(2), Fraction(-3), SignedSqrtRational.of(1, Fraction(9, 4)))
    assert v.scale(2).rational == 4
    assert v.scale(2).root_over_sqrt_pi == SignedSqrtRational.of(1, 9)
    assert v.to_float() == pytest.approx(2 - 3 / math.pi + 1.5 / math.sqrt(math.pi), rel=1e-15)
    with pytest.raises(ValueError):
        v.exact_sign()
    assert MCValue(over_pi=Fraction(-5)).exact_sign() == -1
    assert MCValue().exact_sign() == 0


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
    assert report.value_float == pytest.approx(-12 / math.pi, rel=1e-15)


def test_mc_flat_positive_instance():
    report = mc_flat(H(3, 2), H(2, -2))
    assert report.value.over_pi == 10
    assert report.value_float > 0


def test_mc_flat_requires_positive_degrees():
    with pytest.raises(ValueError):
        mc_flat(H(0, 0), H(2, 1))


def test_mc_report_decomposition_consistency():
    report = mc_flat(H(4, 3), H(3, -2))
    assert report.value.over_pi == report.flat_over_pi == sum(s.contribution_over_pi for s in report.summands)
    for s in report.summands:
        assert abs(4 - 3) + 1 <= s.l3 <= 4 + 3 - 1
        assert s.weight == 4 * 5 - s.l3 * (s.l3 + 1)
    assert float_ulps(report.value_float, float(report.flat_over_pi) / math.pi) <= 4


def test_mc_symmetry_negate():
    for a, b in (((3, 2), (2, -2)), ((5, 1), (4, 1)), ((4, 0), (3, 0))):
        left, right = mc_symmetry_negate(H(*a), H(*b))
        assert left.value == right.value


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
        value = mc_combination(H(3, 2), H(2, -2), [(x, H(3, -1))]).value_float
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
    assert report.delta_term == -9
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
    assert mc_coriolis(H(3, 0), H(2, 1), 5.0).value_float > 0
    assert mc_coriolis(H(3, 0), H(2, 1), 2.9).value_float < 0


def test_critical_ratio_reference_cells():
    cell = critical_ratio(3, 2, 1)
    assert cell.defined and cell.direction == ">"
    assert cell.value == pytest.approx(2.983, rel=5e-3)
    cell = critical_ratio(3, 3, 3)
    assert cell.direction == "<"
    assert cell.value == pytest.approx(-20.35, rel=5e-3)
    cell = critical_ratio(5, 2, 1)
    assert not cell.defined and cell.status == "undefined"
    cell = critical_ratio(7, 6, 6)
    assert cell.direction == "<"
    assert cell.value == pytest.approx(-569.9, rel=5e-3)


def test_critical_ratio_validates_orders():
    with pytest.raises(ValueError):
        critical_ratio(3, 2, 0)
    with pytest.raises(ValueError):
        critical_ratio(3, 2, 3)


def test_critical_table_even_flow_all_undefined():
    table = critical_table(4, l2_max=5)
    assert all(not cell.defined for cell in table.cells)
    assert {cell.status for cell in table.cells} == {"undefined", "not-applicable"}


def test_critical_table_degree_one_flow():
    # l1 = 1: the paired constant is the rotation generator itself, so the g
    # cancels and every in-range cell is sqrt(3/(4 pi)) (l2(l2+1) - 2) with
    # direction ">"; the (1, 1) cell degenerates to a zero threshold.
    table = critical_table(1, l2_max=3)
    for cell in table.cells:
        if cell.m2 > cell.l2:
            assert cell.status == "not-applicable"
            continue
        assert cell.defined and cell.direction == ">"
        want = math.sqrt(3 / (4 * math.pi)) * (cell.l2 * (cell.l2 + 1) - 2)
        assert cell.value == pytest.approx(want, abs=1e-12)


def test_critical_table_shape_and_signs():
    table = critical_table(3, l2_max=5)
    assert len(table.cells) == 25
    defined = table.defined_cells()
    assert len(defined) == 14
    for cell in defined:
        assert (cell.direction == ">") == (cell.value >= 0)
    assert table.cell(2, 3).status == "not-applicable"
    with pytest.raises(KeyError):
        table.cell(6, 1)


def test_rhw_solution_constructor():
    wave = RHWave.solution(A=1 + 2j, C=0.5, index=H(3, 2), alpha2=1.5, a=-0.25)
    assert wave.is_solution()
    assert not RHWave(A=1 + 0j, C=1.0, index=H(3, 2), omega=0.123).is_solution()


def test_rhw_rejects_zonal_wave():
    wave = RHWave.solution(A=1 + 0j, C=1.0, index=H(3, 0))
    with pytest.raises(ValueError):
        rhw_mc(wave, H(2, 1))


def test_rhw_degree_one_probe_gives_k_c_squared():
    # probe e_{1 m2} with a = -K C: exactly K C^2 for |m2| = 1; the rate is
    # formed as an exact product so the identity is not lost to rounding
    for K, C in ((2.0, 1.0), (0.75, 0.7), (3.0, -1.25)):
        wave = RHWave.solution(A=1 + 1j, C=C, index=H(3, 2), a=-Fraction(K) * Fraction(C))
        for m2 in (-1, 1):
            report = rhw_mc(wave, H(1, m2))
            assert report.value.over_pi == 0
            assert report.value.rational == Fraction(K) * Fraction(C) ** 2
        assert rhw_mc(wave, H(1, 0)).value.is_zero()


def test_rhw_zonal_only_wave_part():
    # A = 0, a = 0: C^2 m2^2 (2 - l2(l2+1))
    wave = RHWave(A=0j, C=1.0, index=H(3, 2), omega=0.0)
    report = rhw_mc(wave, H(4, 2))
    assert report.value.rational == -72
    assert report.value.over_pi == 0
    assert rhw_mc(wave, H(1, 1)).value.is_zero()


def test_rhw_self_probe_penalty_term():
    wave = RHWave(A=2 + 0j, C=0.0, index=H(3, 2), omega=0.0)
    report = rhw_mc(wave, H(3, 2))
    assert report.delta_term == -16
    assert report.value.rational == -16


def test_rhw_coriolis_gain_is_exact():
    # a = -K C exceeds the flat wave criterion by exactly K m2^2 C^2
    for (l1, m1), (l2, m2), K, C in (((3, 2), (2, -2), 1.5, 2.0), ((5, 3), (3, -3), 4.0, 0.5)):
        still = RHWave(A=1 + 0j, C=C, index=H(l1, m1), omega=0.0, a=0.0)
        spun = RHWave(A=1 + 0j, C=C, index=H(l1, m1), omega=0.0, a=-K * C)
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


@pytest.mark.parametrize("l1,m1,m", [(3, 2, 2), (5, 3, 2), (5, 3, 3)])
def test_rhw_threshold_separates_signs(l1, m1, m):
    for K in (0.0, 1.0):
        threshold = rhw_threshold(l1, m1, m, K=K)
        for eps, positive in ((1e-6, True), (-1e-6, False)):
            amp = math.sqrt(threshold * (1 + eps))
            wave = RHWave(A=complex(amp, 0), C=1.0, index=H(l1, m1), omega=0.0, a=-K)
            value = rhw_mc(wave, H(m, -m)).value_float
            assert (value > 0) == positive


def test_conjugate_time():
    assert conjugate_time(math.pi**2, 1.0) == 1.0
    assert conjugate_time(2 * math.pi**2, 2.0) == 0.5
    assert conjugate_time(1.0, math.pi**2) == 1.0
    with pytest.raises(ValueError):
        conjugate_time(0.0, 1.0)
    with pytest.raises(ValueError):
        conjugate_time(1.0, -2.0)


def test_harmonic_velocity_norm():
    assert harmonic_velocity_norm(H(3, 2)) == pytest.approx(math.sqrt(12))
    assert harmonic_velocity_norm(H(1, 0)) == pytest.approx(math.sqrt(2))


def test_positivity_chain_monotone_instances():
    for l1, m1, m in ((4, 4, 4), (5, 4, 4), (6, 5, 5), (7, 6, 4)):
        chain = positivity_chain(l1, m1, m)
        assert chain, (l1, m1, m)
        assert all(r > 1 for r in chain)
        assert all(b > a for a, b in zip(chain, chain[1:]))


def test_theorem_scan_small():
    scan = theorem_scan(6)
    assert scan.ok
    assert scan.checked_pairs == sum(m1 - 1 for l1 in range(2, 7) for m1 in range(2, l1 + 1))
    assert scan.checked_wave_pairs == 10  # (l1, l2) with 2 <= l2 < l1 <= 6
    assert scan.extended_nonpositive == []
    with pytest.raises(ValueError):
        theorem_scan(2)


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
    left, right = mc_symmetry_negate(H(l1, m1), H(l2, m2))
    assert left.value == right.value


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(-6, 6), st.integers(1, 6), st.integers(-6, 6),
       st.fractions(min_value=-50, max_value=50, max_denominator=8))
def test_float_matches_exact_within_4_ulp(l1, m1, l2, m2, rate):
    if abs(m1) > l1 or abs(m2) > l2:
        return
    report = mc_coriolis(H(l1, m1), H(l2, m2), rate)
    recomputed = (
        float(report.value.rational)
        + float(report.value.over_pi) / math.pi
        + report.value.root_over_sqrt_pi.to_float() / math.sqrt(math.pi)
    )
    assert float_ulps(report.value_float, recomputed) <= 4
