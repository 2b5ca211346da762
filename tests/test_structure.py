"""Structure constants: Dowker pipeline, bracket expansion, symmetries."""

import math
import pickle
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import misiolek.structure
import misiolek.suites
from misiolek.checks import SuiteResult
from misiolek.criterion import mc_flat
from misiolek.exact import SignedSqrtRational
from misiolek.structure import (
    HarmonicIndex,
    _l123_squared,
    bracket_coefficient,
    bracket_expand,
    g_real,
    validate_symmetries,
)
from misiolek.suites import structure_suite, theorem_suite
from misiolek.wigner import _racah, threej_lm

SSR = SignedSqrtRational


def test_harmonic_index_validation():
    idx = HarmonicIndex(3, -2)
    assert (idx.l, idx.m) == (3, -2)
    with pytest.raises(ValueError):
        HarmonicIndex(2, 3)
    with pytest.raises(ValueError):
        HarmonicIndex(-1, 0)


def test_l123_examples():
    assert _l123_squared(1, 1, 1) == 108
    assert _l123_squared(2, 1, 2) == 900 == 30 ** 2
    # high-precision float oracle: Decimal(22680).sqrt()
    assert _l123_squared(3, 2, 4) == 22680
    assert SSR.of(1, _l123_squared(3, 2, 4)).to_float() == pytest.approx(150.5988047761336, abs=0)
    # A degree-zero input gives a zero prefactor, so g vanishes there.
    assert _l123_squared(0, 1, 1) == _l123_squared(1, 0, 1) == 0


def test_g_real_rotation_generator_value():
    # g^{1 0}_{l2 m2 l2 -m2} = (-1)^{m2} m2 sqrt(3/(4 pi))
    for l2 in range(1, 6):
        for m2 in range(-l2, l2 + 1):
            g = g_real(l2, m2, l2, -m2, 1, 0)
            sign = -1 if m2 % 2 else 1
            assert g == SSR.of(sign * m2, Fraction(3, 4) * m2 * m2)
    g = g_real(2, 1, 2, -1, 1, 0)
    assert g.to_float() * math.pi ** -0.5 == pytest.approx(-0.4886025119029199, rel=1e-15)


def test_g_real_parity_zero():
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            for l3 in range(0, 11):
                if (l1 + l2 + l3) % 2 == 0:
                    assert g_real(l1, 1, l2, 0, l3, -1).is_zero()


def test_g_real_triangle_interior_zero():
    for l1 in range(1, 11):
        for l2 in range(1, 11):
            for l3 in range(0, 13):
                if not abs(l1 - l2) + 1 <= l3 <= l1 + l2 - 1:
                    assert g_real(l1, 0, l2, 1, l3, -1).is_zero()


def test_g_real_lower_swap_antisymmetry_spot():
    for l3 in range(7):
        a = g_real(2, 1, 3, -1, l3, 0)
        b = g_real(3, -1, 2, 1, l3, 0)
        assert b == -a
    assert not g_real(2, 1, 3, -1, 4, 0).is_zero()  # the sweep hits a nonzero case


def test_g_real_order_sum_selection():
    assert g_real(2, 1, 3, 1, 4, 1).is_zero()
    assert not g_real(2, 1, 3, 1, 4, -2).is_zero()


def test_g_real_is_the_reduced_product_of_its_symbols():
    # g_real reduces its unreduced m-symbol times the rest once; that is the
    # product -1/2 L123 (m-symbol)(1 -1 0) of the two reduced 3j symbols, for
    # an odd degree sum, and zero for an even one.  Zeros are compared too.
    zeros = 0
    for l1 in range(9):
        for l2 in range(9):
            for l3 in range(9):
                half_l123 = SSR.of(1, Fraction(_l123_squared(l1, l2, l3), 4))
                flat = threej_lm(l1, l2, l3, 1, -1, 0)
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        m3 = -(m1 + m2)
                        g = g_real(l1, m1, l2, m2, l3, m3)
                        want = SSR.zero()
                        if (l1 + l2 + l3) % 2:
                            want = -(half_l123 * threej_lm(l1, l2, l3, m1, m2, m3) * flat)
                        assert (g.sign, g.num, g.den) == (want.sign, want.num, want.den), (l1, m1, l2, m2, l3)
                        zeros += g.is_zero()
    assert 0 < zeros < 59049  # sum over l1, l2 <= 8 of (2 l1 + 1)(2 l2 + 1), times 9 l3


def test_g_real_zonal_pairs_commute_without_racah(monkeypatch):
    # {Y_{l1 0}, Y_{l2 0}} = 0: the selection rules return zero before any 3j symbol
    def no_threej(*args):
        raise AssertionError(f"3j symbol {args} computed for a zonal pair")

    monkeypatch.setattr(misiolek.structure, "threej_lm", no_threej)
    monkeypatch.setattr(misiolek.structure, "_racah_core", no_threej)
    for l1 in range(13):
        for l2 in range(13):
            for l3 in range(13):
                assert g_real(l1, 0, l2, 0, l3, 0) == SSR.zero()


def test_g_real_caches_only_the_shared_order_symbol():
    # The m-symbol of g is read once, the (l1 l2 l3; 1 -1 0) symbol by every
    # order pair of the degree triple: only the latter enters the Racah cache.
    _racah.cache_clear()
    g_real(5, 2, 4, -3, 6, 1)
    g_real(5, -1, 4, 2, 6, -1)
    info = _racah.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    threej_lm(5, 4, 6, 1, -1, 0)  # a hit: the one entry is (5 4 6; 1 -1 0)
    assert _racah.cache_info().hits == 2
    # A cold theorem suite to degree 10 keeps one entry per degree triple it uses.
    _racah.cache_clear()
    theorem_suite(10)
    assert _racah.cache_info().currsize == 385


def test_bracket_with_rotation_generator():
    # {Y_{1 0}, Y_{l m}}: single term at l3 = l with magnitude |m| sqrt(3/(4 pi))
    for l2, m2 in ((2, 1), (3, -2), (5, 4)):
        expansion = bracket_expand(HarmonicIndex(1, 0), HarmonicIndex(l2, m2))
        assert list(expansion) == [l2]
        coeff = bracket_coefficient(m2, expansion[l2])
        assert coeff.real == pytest.approx(0.0, abs=1e-15)
        assert abs(coeff) == pytest.approx(abs(m2) * math.sqrt(3 / (4 * math.pi)), rel=1e-14)
        # {mu, Y} = -i m Y scaled by sqrt(3/(4 pi)): the coefficient is -i m g-style
        assert coeff.imag == pytest.approx(-m2 * math.sqrt(3 / (4 * math.pi)), rel=1e-14)


def test_bracket_lookup_by_degree():
    # Each value is a nonzero root, the keys ascend, and a degree off the expansion is a KeyError.
    indices = [HarmonicIndex(l, m) for l in range(6) for m in range(-l, l + 1)]
    for a in indices:
        for b in indices:
            expansion = bracket_expand(a, b)
            assert all(type(g) is SSR and not g.is_zero() for g in expansion.values()), (a, b)
            assert list(expansion) == sorted(expansion), (a, b)
            for l3 in range(a.l + b.l + 2):
                if l3 not in expansion:
                    with pytest.raises(KeyError):
                        expansion[l3]


def test_bracket_coefficient_float_is_pinned():
    # The float is g / sqrt(pi) correctly rounded (against mpmath at 60
    # digits), then times the phase -i*(-1)^m3; its bits, signed zeros
    # included, reach the CLI's JSON output.  The root's float times a
    # rounded pi**-0.5 missed 1,624 of these 5,644 magnitudes.
    indices = [HarmonicIndex(l, m) for l in range(7) for m in range(-l, l + 1)]
    terms = 0
    with mpmath.workdps(60):
        for a in indices:
            for b in indices:
                m3 = a.m + b.m
                for l3, g in bracket_expand(a, b).items():
                    size = float(g.sign * mpmath.sqrt(mpmath.mpf(g.num) / g.den / mpmath.pi))
                    want = complex(0, 1 if m3 % 2 else -1) * size
                    got = bracket_coefficient(m3, g)
                    assert got == want and repr(got) == repr(want), (a, b, l3)
                    terms += 1
    assert terms == 5644


def test_bracket_of_identical_fields_is_empty():
    for l, m in ((1, 0), (3, 2), (4, -4)):
        assert bracket_expand(HarmonicIndex(l, m), HarmonicIndex(l, m)) == {}


def test_bracket_zero_degree_input():
    assert bracket_expand(HarmonicIndex(0, 0), HarmonicIndex(3, 1)) == {}


def test_bracket_band_and_parity():
    expansion = bracket_expand(HarmonicIndex(2, 1), HarmonicIndex(3, -1))
    assert list(expansion) == [2, 4]  # range [2, 4], parity excludes 3
    for l3 in expansion:
        assert (2 + 3 + l3) % 2 == 1


def test_bracket_expansion_value_semantics():
    # The expansion is a plain dict, ascending in l3, built afresh by each call:
    # a caller that edits its copy changes no other caller's.
    a, b = HarmonicIndex(2, 1), HarmonicIndex(3, -1)
    expansion = bracket_expand(a, b)
    assert type(expansion) is dict
    assert expansion == {2: SSR.of(-1, Fraction(18, 7)), 4: SSR.of(-1, Fraction(125, 14))}
    expansion.clear()
    again = bracket_expand(a, b)
    assert list(again) == [2, 4] and again is not expansion
    assert pickle.loads(pickle.dumps(again)) == again
    empty = bracket_expand(HarmonicIndex(0, 0), HarmonicIndex(1, 0))
    assert type(empty) is dict and empty == {}


def test_bracket_degrees_are_the_nonzero_band():
    # bracket_expand and mc_flat step l3 by parity; the skipped l3 must all vanish
    indices = [HarmonicIndex(l, m) for l in range(1, 7) for m in range(-l, l + 1)]
    for a in indices:
        for b in indices:
            band = range(abs(a.l - b.l) + 1, a.l + b.l)
            nonzero = [l3 for l3 in band if not g_real(a.l, a.m, b.l, b.m, l3, -(a.m + b.m)).is_zero()]
            assert list(bracket_expand(a, b)) == nonzero, (a, b)
            assert [s.l3 for s in mc_flat(a, b).summands] == nonzero, (a, b)


def test_bracket_antisymmetry():
    for l1 in range(1, 5):
        for m1 in range(-l1, l1 + 1):
            for l2 in range(1, 5):
                for m2 in range(-l2, l2 + 1):
                    left = bracket_expand(HarmonicIndex(l1, m1), HarmonicIndex(l2, m2))
                    right = bracket_expand(HarmonicIndex(l2, m2), HarmonicIndex(l1, m1))
                    assert list(left) == list(right)
                    for l3, g in left.items():
                        assert right[l3] == -g
                        m3 = m1 + m2
                        assert bracket_coefficient(m3, right[l3]) == -bracket_coefficient(m3, g)


def _symmetries(l_max):
    result = SuiteResult("structure", l_max)
    validate_symmetries(result, l_max)
    return result


def test_validate_symmetries_counts():
    tiny = _symmetries(1)
    assert tiny.ok and tiny.checks > 0
    small = _symmetries(3)
    assert small.ok
    bigger = _symmetries(5)
    assert bigger.ok
    assert bigger.checks > small.checks > tiny.checks


def test_validate_symmetries_adds_to_the_result_it_is_given():
    result = SuiteResult("structure", 3, checks=5, failures=["earlier"])
    validate_symmetries(result, 3)
    assert (result.checks, result.failures) == (5 + _symmetries(3).checks, ["earlier"])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8), st.integers(-8, 8), st.integers(0, 16))
def test_cyclic_symmetry_property(l1, m1, l2, m2, l3):
    if abs(m1) > l1 or abs(m2) > l2:
        return
    m3 = -(m1 + m2)
    if abs(m3) > l3:
        return
    base = g_real(l1, m1, l2, m2, l3, m3)
    assert g_real(l3, m3, l1, m1, l2, m2) == base
    assert g_real(l2, m2, l3, m3, l1, m1) == base
    assert g_real(l1, -m1, l2, -m2, l3, -m3) == -base


def _flip_one(monkeypatch, target):
    """Make g_real return the negated value at one tuple and nowhere else."""
    honest = misiolek.structure.g_real
    assert not honest(*target).is_zero()

    def flipped(*args):
        value = honest(*args)
        return -value if args == target else value

    monkeypatch.setattr(misiolek.structure, "g_real", flipped)


def test_validate_symmetries_reports_a_flipped_sign(monkeypatch):
    # In the order of the (l1, m1, l2, m2, l3) loop, and per tuple cyclic,
    # order-negation, lower-swap.
    target = (1, 1, 2, -1, 2, 0)
    checks = _symmetries(3).checks
    _flip_one(monkeypatch, target)
    report = _symmetries(3)
    assert report.checks == checks
    assert report.failures == [
        "order-negation identity off at (1, -1, 2, 1, 2, 0)",
        "cyclic identity off at (1, 1, 2, -1, 2, 0)",
        "order-negation identity off at (1, 1, 2, -1, 2, 0)",
        "lower-swap identity off at (1, 1, 2, -1, 2, 0)",
        "lower-swap identity off at (2, -1, 1, 1, 2, 0)",
        "cyclic identity off at (2, -1, 2, 0, 1, 1)",
        "cyclic identity off at (2, 0, 1, 1, 2, -1)",
    ]


def test_validate_symmetries_evaluates_each_tuple_once(monkeypatch):
    honest = misiolek.structure.g_real
    calls = Counter()

    def counting(*args):
        calls[args] += 1
        return honest(*args)

    monkeypatch.setattr(misiolek.structure, "g_real", counting)
    l_max = 4
    report = _symmetries(l_max)
    checked = {(l1, m1, l2, m2, l3, -(m1 + m2))
               for l1 in range(l_max + 1) for m1 in range(-l1, l1 + 1)
               for l2 in range(l_max + 1) for m2 in range(-l2, l2 + 1)
               for l3 in range(abs(m1 + m2), l_max + 1)}
    assert report.ok and report.checks == len(checked)
    assert set(calls) == checked and set(calls.values()) == {1}


def test_structure_suite_expands_each_ordered_pair_once(monkeypatch):
    honest = misiolek.suites.bracket_expand
    calls = Counter()

    def counting(a, b):
        calls[a.l, a.m, b.l, b.m] += 1
        return honest(a, b)

    monkeypatch.setattr(misiolek.suites, "bracket_expand", counting)
    assert structure_suite(3).ok
    indices = [(l, m) for l in range(1, 4) for m in range(-l, l + 1)]
    assert set(calls) == {a + b for a in indices for b in indices}
    assert set(calls.values()) == {1}


def test_symmetry_check_counts_are_pinned():
    suite = structure_suite(5)
    assert (suite.checks, suite.failures) == (6339, [])
    assert _symmetries(10).checks == 88913


def test_structure_suite_reports_a_flipped_sign(monkeypatch):
    # bracket_expand reads its m-symbols from the band: flip the one of the
    # pair (1, 1), (2, -1) at l3 = 2 there, and only there.
    honest = misiolek.structure.threej_band
    target = (1, 2, 1, -1)

    def flipped(*args):
        for j, sign, num, den in honest(*args):
            if args[:4] == target and j == 2:
                assert sign != 0
                sign = -sign
            yield j, sign, num, den

    monkeypatch.setattr(misiolek.structure, "threej_band", flipped)
    failures = structure_suite(3).failures
    assert "bracket antisymmetry off at (1,1,2,-1,2)" in failures
    assert "bracket antisymmetry off at (2,-1,1,1,2)" in failures
