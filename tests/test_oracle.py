"""Quadrature oracle: Legendre recurrences, harmonics, brackets, projections."""

import math

import numpy as np
import pytest

from misiolek.oracle import (
    GridFunction,
    QuadratureGrid,
    legendre_p,
    legendre_p_deriv,
    oracle_structure_coeff,
    poisson_bracket,
    ylm_eval,
)
from misiolek.structure import HarmonicIndex, bracket_expand


@pytest.fixture(scope="module")
def grid():
    return QuadratureGrid.for_degree(6)


def integrate_reference(grid, values):
    """The 2-D quadrature on values[..., i_mu, i_lam]: lambda sums, then mu weights."""
    return (values.sum(axis=-1) @ grid.mu_weights) * grid.lam_weight


def test_legendre_examples():
    mus = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(legendre_p(0, 0, mus), 1.0)
    assert legendre_p(1, 0, 0.5) == pytest.approx(0.5, abs=0)
    # P^2_2 = 3 (1 - mu^2), from differentiating the Rodrigues form twice
    assert legendre_p(2, 2, 0.0) == pytest.approx(3.0)
    assert np.allclose(legendre_p(2, 2, mus), 3 * (1 - mus**2))
    # P^1_3 = -(3/2)(5 mu^2 - 1) sqrt(1-mu^2) up to sign convention: phase-free here
    assert np.allclose(legendre_p(3, 1, mus), 1.5 * (5 * mus**2 - 1) * np.sqrt(1 - mus**2))


def test_legendre_rejects_bad_orders():
    with pytest.raises(ValueError):
        legendre_p(2, 3, 0.5)
    with pytest.raises(ValueError):
        legendre_p(2, -1, 0.5)


def test_legendre_derivative_matches_finite_differences():
    mus = np.linspace(-0.8, 0.8, 9)
    h = 1e-6
    for l, m in ((1, 0), (3, 1), (4, 4), (6, 3)):
        numeric = (legendre_p(l, m, mus + h) - legendre_p(l, m, mus - h)) / (2 * h)
        assert np.allclose(legendre_p_deriv(l, m, mus), numeric, rtol=1e-6, atol=1e-5)


def test_ylm_constant_mode():
    assert ylm_eval(HarmonicIndex(0, 0), 0.3, 0.7) == pytest.approx(math.sqrt(1 / (4 * math.pi)))


def test_high_orders_fail_loudly():
    # (l-m)!/(l+m)! is a normal double up to l = m = 85 and subnormal from 86 on;
    # at 150 it used to underflow to 0.0 and the harmonic silently read 0.
    assert math.isfinite(abs(ylm_eval(HarmonicIndex(85, 85), 0.0, 0.0)))
    assert ylm_eval(HarmonicIndex(85, 85), 0.0, 0.0) != 0
    for l in (86, 150):
        with pytest.raises(OverflowError):
            ylm_eval(HarmonicIndex(l, l), 0.0, 0.0)
    # (2m-1)!! overflows from m = 151 at the equator; it used to give inf, then nan.
    assert np.all(np.isfinite(legendre_p(150, 150, np.array([0.0, 0.5]))))
    for m in (151, 155):
        with pytest.raises(OverflowError):
            legendre_p(m, m, np.array([0.0, 0.5]))
    with pytest.raises(OverflowError):
        legendre_p_deriv(160, 155, 0.5)


def test_ylm_normalization_on_grid(grid):
    for l in range(7):
        for m in range(-l, l + 1):
            y = grid.harmonic(HarmonicIndex(l, m))
            assert grid.pair_conjugated(y, y) == pytest.approx(1.0, abs=1e-12)


def test_ylm_conjugation_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        l = int(rng.integers(0, 7))
        m = int(rng.integers(-l, l + 1)) if l else 0
        lam = rng.uniform(0, 2 * math.pi)
        mu = rng.uniform(-0.95, 0.95)
        lhs = np.conj(ylm_eval(HarmonicIndex(l, m), lam, mu))
        rhs = (-1) ** m * ylm_eval(HarmonicIndex(l, -m), lam, mu)
        assert abs(lhs - rhs) < 1e-13


def test_unconjugated_pairing_identity(grid):
    indices = [HarmonicIndex(l, m) for l in range(7) for m in range(-l, l + 1)]
    for a in indices:
        for b in indices:
            value = grid.pair_plain(grid.harmonic(a), grid.harmonic(b))
            want = (-1.0) ** a.m if (a.l == b.l and a.m == -b.m) else 0.0
            assert abs(value - want) < 1e-12


def test_orthonormality_matrix(grid):
    indices = [HarmonicIndex(l, m) for l in range(7) for m in range(-l, l + 1)]
    n = len(indices)
    mat = np.empty((n, n), dtype=complex)
    for i, a in enumerate(indices):
        for j, b in enumerate(indices):
            mat[i, j] = grid.pair_conjugated(grid.harmonic(a), grid.harmonic(b))
    assert np.abs(mat - np.eye(n)).max() < 1e-12


def test_dual_pairings_match_2d_quadrature(grid):
    harmonics = [grid.harmonic(HarmonicIndex(l, m)) for l in range(7) for m in range(-l, l + 1)]
    conj_stack = np.conj(np.stack([y.values for y in harmonics]))
    worst = 0.0
    for f in harmonics:
        for y in harmonics:
            worst = max(worst,
                        abs(grid.pair_conjugated(f, y) - integrate_reference(grid, f.values * np.conj(y.values))),
                        abs(grid.pair_plain(f, y) - integrate_reference(grid, f.values * y.values)))
    assert worst < 1e-14
    worst = 0.0
    for f in harmonics:
        for g in harmonics:
            bracket = poisson_bracket(f, g)
            want = integrate_reference(grid, bracket.values * conj_stack)
            got = [grid.pair_conjugated(bracket, y) for y in harmonics]
            worst = max(worst, np.abs(np.array(got) - want).max())
    assert worst < 1e-14


def test_pairings_require_a_grid_harmonic_second(grid):
    y = grid.harmonic(HarmonicIndex(2, 1))
    bracket = poisson_bracket(y, grid.harmonic(HarmonicIndex(3, -1)))
    for second in (bracket, grid.mu_field()):
        with pytest.raises(ValueError):
            grid.pair_conjugated(y, second)
        with pytest.raises(ValueError):
            grid.pair_plain(y, second)


def test_bracket_requires_derivatives(grid):
    bare = GridFunction(values=grid.harmonic(HarmonicIndex(1, 0)).values)
    with pytest.raises(ValueError):
        poisson_bracket(bare, grid.harmonic(HarmonicIndex(1, 1)))


def test_bracket_antisymmetry_pointwise(grid):
    # FMA in the complex products leaves ~1e-17 residue in a*b - b*a
    f = grid.harmonic(HarmonicIndex(3, 2))
    assert np.abs(poisson_bracket(f, f).values).max() < 1e-14


def test_bracket_with_mu_is_azimuthal_derivative(grid):
    mu = grid.mu_field()
    for l, m in ((3, 2), (5, -4), (2, 0), (6, 6)):
        y = grid.harmonic(HarmonicIndex(l, m))
        bracket = poisson_bracket(mu, y)
        assert np.abs(bracket.values - (-1j * m) * y.values).max() < 1e-12


def test_bracket_y10_y11_collinear(grid):
    f = grid.harmonic(HarmonicIndex(1, 0))
    g = grid.harmonic(HarmonicIndex(1, 1))
    bracket = poisson_bracket(f, g)
    ratio = bracket.values / g.values
    assert np.abs(ratio - ratio.flat[0]).max() < 1e-12


def test_projection_selection_rules(grid):
    # azimuthal integral kills m3 != m1 + m2; parity kills even degree sums
    assert abs(oracle_structure_coeff(2, 1, 3, 1, 4, 1, grid)) < 1e-12
    assert abs(oracle_structure_coeff(2, 1, 3, 1, 3, 2, grid)) < 1e-12
    assert abs(oracle_structure_coeff(2, 0, 2, 1, 2, 1, grid)) < 1e-12


def test_rotation_generator_column(grid):
    # {Y_{1 0}, Y_{l m}} projects to -i m sqrt(3/(4 pi)) at (l, m) and nowhere else
    for l2, m2 in ((2, 1), (4, -3), (6, 5)):
        for l3 in range(abs(m2), 7):
            got = oracle_structure_coeff(1, 0, l2, m2, l3, m2, grid)
            want = -1j * m2 * math.sqrt(3 / (4 * math.pi)) if l3 == l2 else 0.0
            assert abs(got - want) < 1e-12


def test_grid_resolution_contract(grid):
    with pytest.raises(ValueError):
        oracle_structure_coeff(7, 0, 3, 1, 4, 1, grid)
    with pytest.raises(ValueError):
        grid.harmonic(HarmonicIndex(9, 0))


def test_oracle_matches_exact_pipeline_small(grid):
    indices = [HarmonicIndex(l, m) for l in range(1, 5) for m in range(-l, l + 1)]
    worst = 0.0
    for a in indices:
        for b in indices:
            expansion = bracket_expand(a, b)
            m3 = a.m + b.m
            for l3 in range(5):
                if abs(m3) > l3:
                    continue
                got = oracle_structure_coeff(a.l, a.m, b.l, b.m, l3, m3, grid)
                worst = max(worst, abs(got - expansion.coefficient(l3)))
    assert worst < 1e-12
