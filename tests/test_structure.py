"""Structure constants: Dowker pipeline, bracket expansion, symmetries."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from misiolek.criterion import mc_flat
from misiolek.exact import SignedSqrtRational
from misiolek.structure import (
    HarmonicIndex,
    bracket_expand,
    g_real,
    l123,
    validate_symmetries,
)

SSR = SignedSqrtRational


def test_harmonic_index_validation():
    idx = HarmonicIndex(3, -2)
    assert idx.laplacian_eigenvalue == -12
    assert idx.conjugate() == HarmonicIndex(3, 2)
    with pytest.raises(ValueError):
        HarmonicIndex(2, 3)
    with pytest.raises(ValueError):
        HarmonicIndex(-1, 0)


def test_l123_examples():
    assert l123(1, 1, 1) == SSR.of(1, 108)
    assert l123(2, 1, 2) == SSR.of(1, 900)
    assert l123(2, 1, 2).to_float() == 30.0
    # high-precision float oracle: Decimal(22680).sqrt()
    assert l123(3, 2, 4) == SSR.of(1, 22680)
    assert l123(3, 2, 4).to_float() == pytest.approx(150.5988047761336, abs=0)
    with pytest.raises(ValueError):
        l123(0, 1, 1)


def test_g_real_rotation_generator_value():
    # g^{1 0}_{l2 m2 l2 -m2} = (-1)^{m2} m2 sqrt(3/(4 pi))
    for l2 in range(1, 6):
        for m2 in range(-l2, l2 + 1):
            g = g_real(l2, m2, l2, -m2, 1, 0)
            sign = -1 if m2 % 2 else 1
            assert g.root == SSR.of(sign * m2, Fraction(3, 4) * m2 * m2)
    g = g_real(2, 1, 2, -1, 1, 0)
    assert g.pi_exp == Fraction(-1, 2)
    assert g.to_float() == pytest.approx(-0.4886025119029199, rel=1e-15)


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
        assert b.root == (-a).root
    assert not g_real(2, 1, 3, -1, 4, 0).is_zero()  # the sweep hits a nonzero case


def test_g_real_order_sum_selection():
    assert g_real(2, 1, 3, 1, 4, 1).is_zero()
    assert not g_real(2, 1, 3, 1, 4, -2).is_zero()


def test_bracket_with_rotation_generator():
    # {Y_{1 0}, Y_{l m}}: single term at l3 = l with magnitude |m| sqrt(3/(4 pi))
    for l2, m2 in ((2, 1), (3, -2), (5, 4)):
        expansion = bracket_expand(HarmonicIndex(1, 0), HarmonicIndex(l2, m2))
        assert expansion.degrees() == [l2]
        coeff = expansion.coefficient(l2)
        assert coeff.real == pytest.approx(0.0, abs=1e-15)
        assert abs(coeff) == pytest.approx(abs(m2) * math.sqrt(3 / (4 * math.pi)), rel=1e-14)
        # {mu, Y} = -i m Y scaled by sqrt(3/(4 pi)): the coefficient is -i m g-style
        assert coeff.imag == pytest.approx(-m2 * math.sqrt(3 / (4 * math.pi)), rel=1e-14)


def test_bracket_of_identical_fields_is_empty():
    for l, m in ((1, 0), (3, 2), (4, -4)):
        assert bracket_expand(HarmonicIndex(l, m), HarmonicIndex(l, m)).terms == ()


def test_bracket_zero_degree_input():
    assert bracket_expand(HarmonicIndex(0, 0), HarmonicIndex(3, 1)).terms == ()


def test_bracket_band_and_parity():
    expansion = bracket_expand(HarmonicIndex(2, 1), HarmonicIndex(3, -1))
    assert expansion.degrees() == [2, 4]  # range [2, 4], parity excludes 3
    assert expansion.output_order == 0
    for term in expansion:
        assert (2 + 3 + term.l3) % 2 == 1


def test_bracket_degrees_are_the_nonzero_band():
    # bracket_expand and mc_flat step l3 by parity; the skipped l3 must all vanish
    indices = [HarmonicIndex(l, m) for l in range(1, 7) for m in range(-l, l + 1)]
    for a in indices:
        for b in indices:
            band = range(abs(a.l - b.l) + 1, a.l + b.l)
            nonzero = [l3 for l3 in band if not g_real(a.l, a.m, b.l, b.m, l3, -(a.m + b.m)).is_zero()]
            assert bracket_expand(a, b).degrees() == nonzero, (a, b)
            assert [s.l3 for s in mc_flat(a, b).summands] == nonzero, (a, b)


def test_bracket_antisymmetry():
    for l1 in range(1, 5):
        for m1 in range(-l1, l1 + 1):
            for l2 in range(1, 5):
                for m2 in range(-l2, l2 + 1):
                    left = bracket_expand(HarmonicIndex(l1, m1), HarmonicIndex(l2, m2))
                    right = bracket_expand(HarmonicIndex(l2, m2), HarmonicIndex(l1, m1))
                    assert left.degrees() == right.degrees()
                    for term in left:
                        mirror = right.term(term.l3)
                        assert mirror.g.root == (-term.g).root
                        assert mirror.phase_imag == term.phase_imag


def test_validate_symmetries_counts():
    tiny = validate_symmetries(1)
    assert tiny.ok and tiny.checks > 0
    small = validate_symmetries(3)
    assert small.ok
    bigger = validate_symmetries(5)
    assert bigger.ok
    assert bigger.checks > small.checks > tiny.checks


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8), st.integers(-8, 8), st.integers(0, 16))
def test_cyclic_symmetry_property(l1, m1, l2, m2, l3):
    if abs(m1) > l1 or abs(m2) > l2:
        return
    m3 = -(m1 + m2)
    if abs(m3) > l3:
        return
    base = g_real(l1, m1, l2, m2, l3, m3)
    assert g_real(l3, m3, l1, m1, l2, m2).root == base.root
    assert g_real(l2, m2, l3, m3, l1, m1).root == base.root
    assert g_real(l1, -m1, l2, -m2, l3, -m3).root == (-base).root
