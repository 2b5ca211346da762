"""The integer criterion layer against the rational loop it replaced.

``_flat_summands`` carries g^2 * pi as reduced integers, ``MCReport`` sums them
over one denominator and skips the Coriolis arithmetic when there is no
rotation or no slope.  The references below are the earlier evaluation in
``Fraction`` and ``MCValue`` arithmetic, and every report attribute must agree
exactly, in value and in type, summands included.  ``positivity_chain``
reads the pair's summands; its reference recomputes each g^2 through
``g_real``.
"""

from fractions import Fraction
from math import gcd

import pytest

from misiolek.criterion import (
    MCSummand,
    MCValue,
    RHWave,
    coriolis_slope,
    mc_combination,
    mc_coriolis,
    mc_flat,
    positivity_chain,
    rhw_mc,
)
from misiolek.structure import HarmonicIndex, g_real

ROTATIONS = (0, 1, -2, Fraction(1, 3))


def _turn(l):
    return l * (l + 1)


def _indices(l_max):
    return [HarmonicIndex(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]


def _abs_squared(x):
    if isinstance(x, complex):
        return Fraction(x.real) ** 2 + Fraction(x.imag) ** 2
    return Fraction(x) ** 2


def reference_summands(a, b):
    """(l3, g^2 over 1/pi, weight) for every nonzero g, as Fractions."""
    m3 = -(a.m + b.m)
    out = []
    for l3 in range(abs(a.l - b.l) + 1, a.l + b.l, 2):
        g = g_real(a.l, a.m, b.l, b.m, l3, m3)
        if not g.is_zero():
            out.append((l3, g.radicand, _turn(a.l) - _turn(l3)))
    return out


def reference_report(summands, constant=Fraction(0), slope=MCValue(), rotation=Fraction(0)):
    """Report attributes with the Coriolis term always formed, as before."""
    over_pi = sum((g_sq * weight for _, g_sq, weight in summands), Fraction(0))
    coriolis = slope.scale(rotation)
    value = MCValue(constant, over_pi) + coriolis
    return {"summands": summands, "value": value, "constant": constant, "coriolis_slope": slope,
            "coriolis_term": coriolis, "rotation": rotation, "flat_over_pi": over_pi}


def _value_types(value):
    return type(value.rational), type(value.over_pi), type(value.root_over_sqrt_pi)


def assert_matches(report, want, context):
    got = {
        "summands": [(s.l3, s.g_squared_over_pi, s.weight) for s in report.summands],
        "value": report.value,
        "constant": report.constant,
        "coriolis_slope": report.coriolis_slope,
        "coriolis_term": report.coriolis_term,
        "rotation": report.rotation,
        "flat_over_pi": report.flat_over_pi,
    }
    assert got == want, context
    # The breakdown adds up: summands over pi, the constant and the Coriolis term.
    assert MCValue(got["constant"], got["flat_over_pi"]) + got["coriolis_term"] == got["value"], context
    for name in ("value", "coriolis_slope", "coriolis_term"):
        assert _value_types(got[name]) == _value_types(want[name]), (name, context)
    for name in ("constant", "rotation", "flat_over_pi"):
        assert type(got[name]) is type(want[name]) is Fraction, (name, context)
    for s in report.summands:
        assert s.den > 0 and gcd(s.num, s.den) == 1, context
        assert type(s.g_squared_over_pi) is Fraction, context
        assert Fraction(s.num * s.weight, s.den) == s.g_squared_over_pi * s.weight, context


def test_mc_flat_equals_rational_reference():
    nonzero = 0
    for a in _indices(8):
        for b in _indices(8):
            summands = reference_summands(a, b)
            assert_matches(mc_flat(a, b), reference_report(summands), (a, b))
            nonzero += bool(summands)
    assert nonzero > 1000


def test_mc_coriolis_equals_rational_reference():
    for a in _indices(5):
        for b in _indices(5):
            summands = reference_summands(a, b)
            delta = Fraction(-a.m * a.m) if a == b else Fraction(0)
            slope = coriolis_slope(a, b)
            for rotation in ROTATIONS:
                want = reference_report(summands, constant=delta, slope=slope, rotation=Fraction(rotation))
                assert_matches(mc_coriolis(a, b, rotation), want, (a, b, rotation))


#: Wave parameters (A, C, index, a) as given; the reference reads them, not the wave.
WAVES = (
    (1.5, Fraction(1, 2), HarmonicIndex(4, 2), Fraction(-1, 3)),
    (2 - 1j, 3, HarmonicIndex(5, 3), 2),
    (0.25j, -1, HarmonicIndex(3, -1), 0.5),
    (0, 1, HarmonicIndex(4, 4), 1),
)


@pytest.mark.parametrize("wave", WAVES)
def test_rhw_mc_equals_rational_reference(wave):
    A, C, index, a = wave
    wave = RHWave(A, C, index, a=a)
    amp_sq = _abs_squared(A)
    zonal = Fraction(C)
    for probe in _indices(6):
        m2 = probe.m
        summands = [(l3, g_sq * amp_sq, weight)
                    for l3, g_sq, weight in reference_summands(wave.index, probe)]
        delta = -amp_sq * wave.index.m ** 2 if probe == wave.index else Fraction(0)
        constant = delta + zonal ** 2 * m2 ** 2 * (2 - _turn(probe.l))
        want = reference_report(summands, constant=constant, slope=MCValue(rational=-Fraction(m2 ** 2) * zonal),
                                rotation=Fraction(a))
        assert_matches(rhw_mc(wave, probe), want, (wave, probe))


def reference_combination(a, base, perturbations):
    merged = {l3: (g_sq, weight) for l3, g_sq, weight in reference_summands(a, base)}
    for x, idx in perturbations:
        weight_sq = _abs_squared(x)
        if weight_sq == 0:
            continue
        for l3, g_sq, weight in reference_summands(a, idx):
            prev = merged.get(l3)
            extra = g_sq * weight_sq
            merged[l3] = (extra if prev is None else prev[0] + extra, weight)
    return reference_report([(l3, g_sq, weight) for l3, (g_sq, weight) in sorted(merged.items())])


def test_mc_combination_equals_rational_reference():
    weights = (Fraction(1, 3), 0.5 - 2j, 0, -3)
    for a in _indices(5):
        for base in _indices(4):
            # Probe orders must be pairwise distinct: base.m, then base.m + 1, + 2, ...
            perturbations = [(x, HarmonicIndex(4, base.m + k + 1))
                             for k, x in enumerate(weights) if abs(base.m + k + 1) <= 4]
            want = reference_combination(a, base, perturbations)
            assert_matches(mc_combination(a, base, perturbations), want, (a, base, perturbations))


def test_mc_summand_reduced_is_lowest_terms():
    s = MCSummand.reduced(3, 12, 18, -4)
    assert (s.num, s.den) == (2, 3)
    assert s == MCSummand(3, 2, 3, -4)
    assert hash(s) == hash(MCSummand(3, 2, 3, -4))
    zero = MCSummand.reduced(5, 0, 7, 2)
    assert (zero.num, zero.den) == (0, 1) and zero.g_squared_over_pi == 0


def reference_positivity_chain(l1, m1, m):
    """Proof-chain ratios with each g^2 recomputed through ``g_real``."""
    def g_squared(l3):
        return g_real(l1, m1, m, -m, l3, m - m1).radicand

    ratios = []
    if m % 2 == 0:
        offsets = [2 * k + 1 for k in range((m - 2) // 2 + 1)]
    else:
        offsets = [2 * k for k in range(1, (m - 1) // 2 + 1)]
    for off in offsets:
        num = g_squared(l1 - off) * (_turn(l1) - _turn(l1 - off))
        den = g_squared(l1 + off) * (_turn(l1 + off) - _turn(l1))
        if den == 0:
            continue
        ratios.append(num / den)
    return ratios


def test_positivity_chain_equals_g_real_reference():
    chains = 0
    for l1 in range(2, 13):
        for m1 in range(2, l1 + 1):
            for m in range(2, m1 + 1):
                summands = mc_flat(HarmonicIndex(l1, m1), HarmonicIndex(m, -m)).summands
                got = positivity_chain(l1, m, summands)
                assert got == reference_positivity_chain(l1, m1, m), (l1, m1, m)
                assert all(type(r) is Fraction for r in got), (l1, m1, m)
                chains += len(got)
    assert chains == 581
