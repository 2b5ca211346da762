"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a single PASS line (visible with -s or in captured output)
so the suite doubles as a checklist; failures carry the offending tuple.
"""

import math
import time
from fractions import Fraction

from misiolek.checks import SuiteResult
from misiolek.criterion import (
    RHWave,
    check_order_one_positivity,
    check_probe_positivity,
    check_zonal_nonpositivity,
    critical_table,
    mc_coriolis,
    mc_flat,
    rhw_mc,
    rhw_threshold,
)
from misiolek.oracle import QuadratureGrid, poisson_bracket
from misiolek.reference import REFERENCE_RATIOS, REFERENCE_TOLERANCE
from misiolek.structure import HarmonicIndex as H, bracket_coefficient, bracket_expand, validate_symmetries
from misiolek.suites import (
    check_order_one_forms,
    check_stretched_forms,
    check_threej_symmetries,
    table_suite,
)


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_reference_table_reproduction():
    started = time.perf_counter()
    result = table_suite()
    assert result.ok, result.failures[:3]
    assert result.checks == 89
    # Value signs and not-applicable cells are the checks table_suite does not make.
    for l1, expected in REFERENCE_RATIOS.items():
        for (l2, m2), cell in critical_table(l1, l2_max=6).items():
            if m2 > l2:
                assert cell["status"] == "not-applicable", (l1, cell)
            elif (l2, m2) in expected:
                assert (cell["ratio"] < 0) == (expected[l2, m2] < 0), (l1, cell)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"table reproduction took {elapsed:.1f}s"
    _report(1, f"{result.checks} reference-table checks within {REFERENCE_TOLERANCE} rel "
               f"(worst {result.max_deviation:.2e}), signs/directions/boundaries/undefined "
               f"all match ({elapsed:.2f}s)")


def test_criterion_2_theorem_positivity_sweep():
    started = time.perf_counter()
    cap = 12
    probe, order_one, zonal = (SuiteResult("theorem", cap) for _ in range(3))
    check_probe_positivity(probe, cap)
    check_order_one_positivity(order_one, cap)
    check_zonal_nonpositivity(zonal, cap)
    elapsed = time.perf_counter() - started
    for result in (probe, order_one, zonal):
        assert result.failures == []
    triples = [(l1, m1, m) for l1 in range(2, cap + 1) for m1 in range(2, l1 + 1)
               for m in range(2, m1 + 1)]
    pairs = sum(m1 - 1 for l1 in range(2, cap + 1) for m1 in range(2, l1 + 1))
    assert len(triples) == pairs
    # One check per pair and one per proof-chain ratio: m // 2 ratios for probe order m.
    assert probe.checks == pairs + sum(m // 2 for _, _, m in triples)
    assert order_one.checks == sum(l1 - 2 for l1 in range(3, cap + 1))
    assert zonal.checks == cap * sum(2 * l2 + 1 for l2 in range(1, cap + 1))
    assert elapsed < 30.0, f"positivity sweep took {elapsed:.1f}s"
    _report(2, f"{pairs} wave-probe pairs with {probe.checks - pairs} chain ratios and "
               f"{order_one.checks} order-one pairs exactly positive, {zonal.checks} zonal "
               f"pairs exactly nonpositive up to degree {cap} ({elapsed:.2f}s)")


def test_criterion_3_vanishing_corollary():
    for l1 in range(1, 13):
        for m1 in range(-l1, l1 + 1):
            for m2 in (-1, 0, 1):
                assert mc_flat(H(l1, m1), H(1, m2)).value.is_zero(), (l1, m1, m2)
    for l2 in range(1, 13):
        for m2 in range(-l2, l2 + 1):
            for m1 in (-1, 0, 1):
                report = mc_flat(H(1, m1), H(l2, m2))
                assert report.value.rational == 0
                assert report.value.over_pi <= 0, (m1, l2, m2)
    _report(3, "degree-one probes vanish exactly and degree-one flows are "
               "exactly nonpositive up to degree 12")


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    grid = QuadratureGrid.for_degree(6)
    indices = [H(l, m) for l in range(1, 7) for m in range(-l, l + 1)]
    worst = 0.0
    tuples = 0
    for a in indices:
        for b in indices:
            expansion = bracket_expand(a, b)
            bracket = poisson_bracket(grid.harmonic(a), grid.harmonic(b))
            for l3 in range(7):
                for m3 in range(-l3, l3 + 1):
                    projected = grid.pair_conjugated(bracket, grid.harmonic(H(l3, m3)))
                    g = expansion.get(l3) if m3 == a.m + b.m else None
                    exact = 0j if g is None else bracket_coefficient(m3, g)
                    deviation = abs(projected - exact)
                    worst = max(worst, deviation)
                    tuples += 1
                    assert deviation <= 1e-9, (a, b, l3, m3, deviation)
    elapsed = time.perf_counter() - started
    assert tuples > 2000
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _report(4, f"{tuples} projection coefficients match Dowker pipeline, "
               f"worst |dev| = {worst:.2e} <= 1e-9 ({elapsed:.1f}s)")


def test_criterion_5_closed_form_consistency():
    cap = 20
    result = SuiteResult("wigner", cap)
    check_stretched_forms(result, cap)
    check_order_one_forms(result, cap)
    assert result.ok, result.failures[:3]
    assert result.checks == 63426
    _report(5, f"{result.checks} closed-form evaluations equal the Racah path exactly up to degree {cap}")


def test_criterion_6_symmetry_suite():
    report = SuiteResult("structure", 10)
    validate_symmetries(report, 10)
    assert report.ok, report.failures[:3]
    assert report.checks == 88913
    result = SuiteResult("wigner", 10)
    check_threej_symmetries(result, 10)
    assert result.ok, result.failures[:3]
    assert result.checks == 145618
    _report(6, f"{report.checks} structure-constant identity tuples and "
               f"{result.checks} 3j column-swap and order-negation checks hold exactly "
               f"up to degree 10")


def test_criterion_7_coriolis_affinity_and_boundary():
    for l1, expected in REFERENCE_RATIOS.items():
        for (l2, m2) in expected:
            reports = [mc_coriolis(H(l1, 0), H(l2, m2), a) for a in (0, 1, 2)]
            slope = reports[0].coriolis_slope
            assert all(r.coriolis_slope == slope for r in reports)
            assert reports[1].value.root_over_sqrt_pi == slope.root_over_sqrt_pi
            assert reports[2].value.root_over_sqrt_pi == slope.scale(2).root_over_sqrt_pi
            assert len({(r.value.rational, r.value.over_pi) for r in reports}) == 1
    _report(7, "rotation dependence is exactly affine for every reference cell; "
               "table_suite (criterion 1) checks the boundary sign flips at 1e-6 offsets")


def test_criterion_8_rhw_identities():
    for K, C in ((2.0, 1.0), (0.5, -1.5), (3.25, 0.8)):
        # the identity presumes the rate is exactly -K*C, so form it exactly
        rate = -Fraction(K) * Fraction(C)
        wave = RHWave(A=0.3 + 0.4j, C=C, index=H(3, 2), a=rate)
        for m2 in (-1, 1):
            report = rhw_mc(wave, H(1, m2))
            assert report.value.over_pi == 0
            assert report.value.rational == Fraction(K) * Fraction(C) ** 2, (K, C, m2)
    for l1, m1, m in ((3, 2, 2), (5, 3, 2), (5, 3, 3)):
        for K in (0.0, 1.0):
            threshold = rhw_threshold(l1, m1, m, K=K)
            assert threshold > 0
            for eps, positive in ((1e-6, True), (-1e-6, False)):
                amp = math.sqrt(threshold * (1 + eps))
                wave = RHWave(A=amp, C=1.0, index=H(l1, m1), a=-K)
                value = rhw_mc(wave, H(m, -m)).value.to_float()
                assert (value > 0) == positive, (l1, m1, m, K, eps, value)
    _report(8, "wave criterion equals K C^2 exactly for degree-one probes and "
               "the amplitude threshold separates signs at 1e-6 offsets")
