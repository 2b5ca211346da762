"""Quadrature oracle: the Legendre recurrence, harmonics, brackets, projections."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import misiolek.oracle
import misiolek.suites
from misiolek.oracle import (
    GridFunction,
    QuadratureGrid,
    gauss_legendre,
    normalised_legendre,
    oracle_structure_coeff,
    poisson_bracket,
)
from misiolek.cli import main
from misiolek.structure import HarmonicIndex, bracket_coefficient, bracket_expand
from misiolek.suites import oracle_suite


@pytest.fixture(scope="module")
def grid():
    return QuadratureGrid.for_degree(6)


def mu_field(grid):
    """The coordinate function mu on the grid: lambda-order 0, mu-derivative 1."""
    shape = (len(grid.mu), len(grid.lam))
    return GridFunction(values=np.broadcast_to(grid.mu[:, None], shape) + 0j,
                        m=0, d_mu=np.ones(shape, dtype=complex))


def integrate_reference(grid, values):
    """The 2-D quadrature on values[..., i_mu, i_lam]: lambda sums, then mu weights."""
    return (values.sum(axis=-1) @ grid.mu_weights) * grid.lam_weight


def normalisation(l, m):
    """sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), with the factorial ratio taken exactly."""
    return math.sqrt((2 * l + 1) * math.factorial(l - m) / (4 * math.pi * math.factorial(l + m)))


def test_legendre_examples():
    mus = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(normalised_legendre(0, 0, mus)[0], normalisation(0, 0), rtol=1e-15, atol=0)
    assert normalised_legendre(1, 0, 0.5)[0] == pytest.approx(normalisation(1, 0) * 0.5, rel=1e-15, abs=0)
    # P^2_2 = 3 (1 - mu^2), from differentiating the Rodrigues form twice
    assert normalised_legendre(2, 2, 0.0)[0] == pytest.approx(normalisation(2, 2) * 3.0, rel=1e-15, abs=0)
    assert np.allclose(normalised_legendre(2, 2, mus)[0], normalisation(2, 2) * 3 * (1 - mus**2),
                       rtol=1e-14, atol=0)
    # P^1_3 = -(3/2)(5 mu^2 - 1) sqrt(1-mu^2) up to sign convention: phase-free here
    assert np.allclose(normalised_legendre(3, 1, mus)[0],
                       normalisation(3, 1) * 1.5 * (5 * mus**2 - 1) * np.sqrt(1 - mus**2),
                       rtol=1e-14, atol=0)


def test_legendre_rejects_bad_orders():
    with pytest.raises(ValueError):
        normalised_legendre(2, 3, 0.5)
    with pytest.raises(ValueError):
        normalised_legendre(2, -1, 0.5)


@pytest.mark.parametrize("mu", [-1.0, 1.0, 1.5, -2.0, math.nan, math.inf, [0.5, 1.0], [-1.0000001, 0.0]])
def test_legendre_rejects_mu_outside_the_open_interval(mu):
    # At mu = +-1 the derivative formula divides by 1 - mu^2 = 0, and beyond
    # them sqrt(1 - mu^2) is nan; the true derivative at the poles is finite.
    with pytest.raises(ValueError):
        normalised_legendre(3, 0, mu)


def test_legendre_accepts_mu_next_to_the_poles():
    mus = np.array([np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)])
    p, dp = normalised_legendre(3, 1, mus)
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(dp))


def test_legendre_derivative_matches_finite_differences():
    mus = np.linspace(-0.8, 0.8, 9)
    h = 1e-6
    for l, m in ((1, 0), (3, 1), (4, 4), (6, 3)):
        # The normalised values are the unnormalised ones scaled by normalisation(l, m),
        # so the absolute tolerance scales with it.
        numeric = (normalised_legendre(l, m, mus + h)[0] - normalised_legendre(l, m, mus - h)[0]) / (2 * h)
        assert np.allclose(normalised_legendre(l, m, mus)[1], numeric,
                           rtol=1e-6, atol=1e-5 * normalisation(l, m))


#: Rule sizes checked against the high-precision reference: every n to 64,
#: then odd and even sizes up to 300.
RULE_SIZES = [*range(2, 65), 100, 101, 150, 151, 200, 255, 256, 299, 300]


def reference_rule(n, start):
    """Roots of P_n and their weights 2 (1-x^2) / (n P_{n-1}(x))^2 as Fractions.

    Newton's method in binary fixed point with 200 fraction bits, on the
    unnormalised recurrence k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2}, from
    the given double-precision starting points; each result is good to far
    below 2^-100.
    """
    bits = 200
    one = 1 << bits

    def legendre(x):  # (P_{n-1}(x), P_n(x)) scaled by 2^bits
        below, p = one, x
        for k in range(2, n + 1):
            below, p = p, (((2 * k - 1) * x * p >> bits) - (k - 1) * below) // k
        return below, p

    rule = []
    for start_x in start:
        x = int(Fraction(start_x) * one)
        for _ in range(4):
            below, p = legendre(x)
            dp = n * ((x * p >> bits) - below) * one // ((x * x >> bits) - one)
            x -= p * one // dp
        below, _ = legendre(x)
        rule.append((Fraction(x, one), Fraction(2 * (one * one - x * x), (n * below) ** 2)))
    return rule


def test_gauss_legendre_matches_the_reference_rule():
    # Absolute errors, in units of the spacing of doubles in [1, 2): the
    # nodes lie in (-1, 1) and the weights add up to 2.  The two weights next
    # to the poles are small and ill-conditioned relative to their own size.
    ulp = Fraction(math.ulp(1.0))
    for n in RULE_SIZES:
        mu, w = gauss_legendre(n)
        for got_mu, got_w, (want_mu, want_w) in zip(mu, w, reference_rule(n, mu)):
            assert abs(Fraction(float(got_mu)) - want_mu) <= ulp, (n, got_mu)
            assert abs(Fraction(float(got_w)) - want_w) <= 4 * ulp, (n, got_mu)


def test_gauss_legendre_integrates_polynomials():
    # Sum w = 2, and sum w mu^k = 2/(k+1) for even k <= 2n-1 (odd k vanish by
    # the mirror symmetry below).
    for n in RULE_SIZES:
        mu, w = gauss_legendre(n)
        for k in range(0, 2 * n, 2):
            assert abs(math.fsum(w * mu ** k) - 2 / (k + 1)) <= 16 * math.ulp(1.0), (n, k)


@pytest.mark.parametrize("n", [2, 3, 14, 15, 299, 300])
def test_gauss_legendre_is_mirrored(n):
    mu, w = gauss_legendre(n)
    assert len(mu) == len(w) == n
    assert np.all(np.diff(mu) > 0) and -1 < mu[0] and mu[-1] < 1
    assert np.array_equal(mu[::-1], -mu) and np.array_equal(w[::-1], w)
    if n % 2:
        assert mu[n // 2] == 0.0 and math.copysign(1.0, mu[n // 2]) == 1.0


def test_gauss_legendre_domain_and_convergence(monkeypatch):
    for n in (-1, 0, 1):
        with pytest.raises(ValueError):
            gauss_legendre(n)
    # From the cosine guesses no rule settles in one Newton step.
    monkeypatch.setattr(misiolek.oracle, "_NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError):
        gauss_legendre(14)


def test_grid_nodes_are_the_gauss_legendre_rule(grid):
    mu, w = gauss_legendre(14)
    assert np.array_equal(grid.mu, mu) and np.array_equal(grid.mu_weights, w)


def test_oracle_suite_leaves_numpy_polynomial_unloaded():
    # The grid's rule comes from the oracle's own recurrence, so neither the
    # suite nor the package imports numpy.polynomial.
    code = ("import sys; from misiolek.suites import run_suite; "
            "assert run_suite('oracle', 2).ok; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("l_max", range(9))
def test_lambda_rule_is_exact_up_to_order_3l(l_max):
    # The uniform rule sums e^{ik lambda} to 2 pi [k = 0] for |k| <= 3L, the
    # highest order of a bracket paired with a harmonic, and aliases order 3L+1.
    grid = QuadratureGrid.for_degree(l_max)
    assert len(grid.lam) == 3 * l_max + 1
    for k in range(-3 * l_max, 3 * l_max + 1):
        got = complex(np.exp(1j * k * grid.lam).sum() * grid.lam_weight)
        assert abs(got - (2 * math.pi if k == 0 else 0.0)) <= 1e-13, (l_max, k)
    aliased = complex(np.exp(1j * (3 * l_max + 1) * grid.lam).sum() * grid.lam_weight)
    assert abs(aliased - 2 * math.pi) <= 1e-13


@pytest.mark.parametrize("l_max", [0, 1, 6])
def test_cached_harmonic_holds_three_arrays(l_max):
    grid = QuadratureGrid.for_degree(l_max)
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            y = grid.harmonic(HarmonicIndex(l, m))
            arrays = {name: getattr(y, name) for name in GridFunction.__slots__
                      if isinstance(getattr(y, name), np.ndarray)}
            assert list(arrays) == ["values", "d_mu", "dual"] and y.m == m, (l, m)
            for array in arrays.values():
                assert array.shape == (2 * l_max + 2, 3 * l_max + 1), (l, m)


def test_ylm_constant_mode(grid):
    assert np.allclose(grid.harmonic(HarmonicIndex(0, 0)).values, math.sqrt(1 / (4 * math.pi)),
                       rtol=1e-15, atol=0)


def test_degrees_above_85_are_in_range():
    # The unnormalised path left double range here: (l-|m|)!/(l+|m|)! from
    # l = |m| = 86 on, and (2m-1)!! from m = 151 on.
    wide = QuadratureGrid.for_degree(150)
    for l, m in ((85, 85), (86, 86), (150, 150), (150, 0)):
        y = wide.harmonic(HarmonicIndex(l, m))
        assert np.all(np.isfinite(y.values)) and np.abs(y.values).max() > 0, (l, m)
        assert abs(wide.pair_conjugated(y, y) - 1) <= 1e-11, (l, m)


def test_ylm_normalization_on_grid(grid):
    for l in range(7):
        for m in range(-l, l + 1):
            y = grid.harmonic(HarmonicIndex(l, m))
            assert grid.pair_conjugated(y, y) == pytest.approx(1.0, abs=1e-12)


def test_ylm_conjugation_identity(grid):
    # Y*_{lm} = (-1)^m Y_{l,-m} at every node of the grid.
    for l in range(7):
        for m in range(-l, l + 1):
            lhs = np.conj(grid.harmonic(HarmonicIndex(l, m)).values)
            rhs = (-1) ** m * grid.harmonic(HarmonicIndex(l, -m)).values
            assert np.abs(lhs - rhs).max() < 1e-13, (l, m)


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
    for second in (bracket, mu_field(grid)):
        with pytest.raises(ValueError):
            grid.pair_conjugated(y, second)
        with pytest.raises(ValueError):
            grid.pair_plain(y, second)


def test_bracket_requires_derivatives(grid):
    bare = GridFunction(values=grid.harmonic(HarmonicIndex(1, 0)).values)
    with pytest.raises(ValueError):
        poisson_bracket(bare, grid.harmonic(HarmonicIndex(1, 1)))


def _bracket_by_formula(ya, yb):
    return (1j * ya.m * ya.values) * yb.d_mu - ya.d_mu * (1j * yb.m * yb.values)


def test_bracket_forms_lambda_derivatives_bit_for_bit(grid):
    # The bracket forms each f_lam as 1j m f; the products and their order are pinned.
    pairs = _suite_pairs(6)
    assert len(pairs) == 2052
    for a, b in pairs:
        ya, yb = grid.harmonic(a), grid.harmonic(b)
        assert poisson_bracket(ya, yb).values.tobytes() == _bracket_by_formula(ya, yb).tobytes(), (a, b)
    # Against a stack of probes the bracket broadcasts: row i is the pair's bracket.
    for a, bs in _suite_stacks(6):
        ya = grid.harmonic(a)
        brackets = poisson_bracket(ya, _stacked(grid, bs)).values
        assert brackets.shape == (len(bs), 14, 19)
        for b, row in zip(bs, brackets):
            assert row.tobytes() == _bracket_by_formula(ya, grid.harmonic(b)).tobytes(), (a, b)


def test_bracket_antisymmetry_pointwise(grid):
    # FMA in the complex products leaves ~1e-17 residue in a*b - b*a
    f = grid.harmonic(HarmonicIndex(3, 2))
    assert np.abs(poisson_bracket(f, f).values).max() < 1e-14


def test_bracket_with_mu_is_azimuthal_derivative(grid):
    mu = mu_field(grid)
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
    bracket = poisson_bracket(grid.harmonic(HarmonicIndex(2, 1)), grid.harmonic(HarmonicIndex(3, 1)))
    assert abs(grid.pair_conjugated(bracket, grid.harmonic(HarmonicIndex(4, 1)))) < 1e-12
    assert abs(oracle_structure_coeff(HarmonicIndex(2, 1), grid.harmonic(HarmonicIndex(3, 1)), grid)[0][3]) < 1e-12
    assert abs(oracle_structure_coeff(HarmonicIndex(2, 0), grid.harmonic(HarmonicIndex(2, 1)), grid)[0][2]) < 1e-12


def test_rotation_generator_column(grid):
    # {Y_{1 0}, Y_{l m}} projects to -i m sqrt(3/(4 pi)) at (l, m) and nowhere else
    for l2, m2 in ((2, 1), (4, -3), (6, 5)):
        column, = oracle_structure_coeff(HarmonicIndex(1, 0), grid.harmonic(HarmonicIndex(l2, m2)), grid)
        assert list(column) == list(range(abs(m2), 7))
        for l3, got in column.items():
            want = -1j * m2 * math.sqrt(3 / (4 * math.pi)) if l3 == l2 else 0.0
            assert abs(got - want) < 1e-12


def test_grid_resolution_contract(grid):
    with pytest.raises(ValueError):
        oracle_structure_coeff(HarmonicIndex(7, 0), grid.harmonic(HarmonicIndex(3, 1)), grid)
    with pytest.raises(ValueError):  # a probe of degree above the grid, sampled on a finer grid
        oracle_structure_coeff(HarmonicIndex(2, 1), QuadratureGrid.for_degree(7).harmonic(HarmonicIndex(7, 2)),
                               grid)
    with pytest.raises(ValueError):
        grid.harmonic(HarmonicIndex(9, 0))
    with pytest.raises(ValueError):
        HarmonicIndex(2, 3)  # |m1| > l1 cannot reach the oracle
    # One entry per degree that carries the order m3, up to the grid's l_max.
    for (l1, m1), (l2, m2) in (((2, 1), (3, 1)), ((1, 0), (1, 0)), ((6, -6), (5, 1)), ((4, 4), (6, 2))):
        m3 = m1 + m2
        got = oracle_structure_coeff(HarmonicIndex(l1, m1), grid.harmonic(HarmonicIndex(l2, m2)), grid)[0]
        assert list(got) == list(range(abs(m3), grid.l_max + 1)), (l1, m1, l2, m2)
    assert oracle_structure_coeff(HarmonicIndex(6, 6), grid.harmonic(HarmonicIndex(3, 1)), grid) == [{}]


def test_structure_coeff_caches_only_its_input_harmonics():
    # The duals of the order m3 = 2 are built without caching the 59 harmonics
    # of that order, and they are the cached harmonics' duals bit for bit.
    wide = QuadratureGrid.for_degree(60)
    a, b = HarmonicIndex(60, 1), HarmonicIndex(59, 1)
    column, = oracle_structure_coeff(a, wide.harmonic(b), wide)
    assert list(column) == list(range(2, 61))
    assert sorted(wide._harmonics) == [(59, 1), (60, 1)]
    for l3, dual in zip((2, 31, 60), (wide._order_duals[2][i] for i in (0, 29, 58))):
        assert np.array_equal(dual, wide.harmonic(HarmonicIndex(l3, 2)).dual.ravel())
        assert column[l3] == _projected_directly(wide, a, b, l3)


def _suite_pairs(l_max):
    """(a, b) of every pair oracle_suite projects, in its order."""
    indices = [HarmonicIndex(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]
    return [(a, b) for a in indices for b in indices if abs(a.m + b.m) <= l_max]


def _suite_stacks(l_max):
    """(a, probes of one order) of every call oracle_suite makes, in its order."""
    indices = [HarmonicIndex(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]
    return [(a, [HarmonicIndex(l, m) for l in range(max(1, abs(m)), l_max + 1)])
            for a in indices for m in range(-l_max, l_max + 1) if abs(a.m + m) <= l_max]


def _stacked(grid, bs):
    """The grid harmonics bs, all of one order, stacked on a leading axis."""
    ys = [grid.harmonic(b) for b in bs]
    return GridFunction(values=np.stack([y.values for y in ys]), m=ys[0].m,
                        d_mu=np.stack([y.d_mu for y in ys]))


def _projected_directly(grid, a, b, l3):
    bracket = poisson_bracket(grid.harmonic(a), grid.harmonic(b))
    return grid.pair_conjugated(bracket, grid.harmonic(HarmonicIndex(l3, a.m + b.m)))


@pytest.mark.parametrize("order", ["suite", "shuffled", "stacked"])
def test_structure_coeff_is_the_direct_projection_bit_for_bit(grid, order):
    # Each call forms its own brackets, so neither the order of the pairs nor
    # a probe's row in a stack may matter.
    if order == "stacked":
        calls = _suite_stacks(6)
        assert len(calls) == 512
        shuffle = random.Random(7).shuffle
        for _, bs in calls:
            shuffle(bs)
    else:
        calls = [(a, [b]) for a, b in _suite_pairs(6)]
        assert len(calls) == 2052
        if order == "shuffled":
            random.Random(7).shuffle(calls)
    entries = 0
    for a, bs in calls:
        probes = _stacked(grid, bs) if order == "stacked" else grid.harmonic(bs[0])
        columns = oracle_structure_coeff(a, probes, grid)
        assert len(columns) == len(bs)
        for b, column in zip(bs, columns):
            for l3, got in column.items():
                want = _projected_directly(grid, a, b, l3)
                assert got == want and repr(got) == repr(want), (a, b, l3)
                entries += 1
    assert entries == 8876


def test_oracle_suite_at_degree_6():
    result = oracle_suite(6)
    assert result.checks == 13678
    assert result.failures == []
    assert result.max_deviation <= 5e-14


class _SkewedGrid(QuadratureGrid):
    """A grid whose Y_{2 -1} and Y_{2 1} duals are scaled by 1 + 1e-11.

    Every pairing of unit value against either is off by 1e-11: the four
    pairs of Y_{2 -1} and Y_{2 1}, whose (a, b) order differs from (b, a) order.
    """

    @classmethod
    def for_degree(cls, l_max):
        grid = super().for_degree(l_max)
        for m in (-1, 1):
            grid.harmonic(HarmonicIndex(2, m)).dual *= 1 + 1e-11
        return grid


#: What oracle_suite(3) reports on the skewed grid, then with every exact
#: coefficient of (m3 parity, g) = (1, g of {Y_{1 0}, Y_{2 1}} at l3 = 2) off by 1e-6.
_INJECTED_FAILURES = [
    "pairing identity off at HarmonicIndex(l=2, m=-1), HarmonicIndex(l=2, m=-1): dev 1.00e-11",
    "pairing identity off at HarmonicIndex(l=2, m=-1), HarmonicIndex(l=2, m=1): dev 1.00e-11",
    "pairing identity off at HarmonicIndex(l=2, m=1), HarmonicIndex(l=2, m=-1): dev 1.00e-11",
    "pairing identity off at HarmonicIndex(l=2, m=1), HarmonicIndex(l=2, m=1): dev 1.00e-11",
    "structure coefficient off at (HarmonicIndex(l=1, m=-1),HarmonicIndex(l=1, m=0),l3=1): dev 1.00e-06",
    "structure coefficient off at (HarmonicIndex(l=1, m=0),HarmonicIndex(l=1, m=1),l3=1): dev 1.00e-06",
    "structure coefficient off at (HarmonicIndex(l=1, m=0),HarmonicIndex(l=2, m=1),l3=2): dev 1.00e-06",
    "structure coefficient off at (HarmonicIndex(l=1, m=0),HarmonicIndex(l=3, m=1),l3=3): dev 1.00e-06",
    "structure coefficient off at (HarmonicIndex(l=2, m=-1),HarmonicIndex(l=1, m=0),l3=2): dev 1.00e-06",
    "structure coefficient off at (HarmonicIndex(l=3, m=-1),HarmonicIndex(l=1, m=0),l3=3): dev 1.00e-06",
]


@pytest.mark.parametrize("injected", ["dual_and_coefficient", "coefficient"])
def test_oracle_suite_reports_injected_errors(monkeypatch, injected):
    target = bracket_expand(HarmonicIndex(1, 0), HarmonicIndex(2, 1))[2]

    def coefficient(m3, g, exact=misiolek.suites.bracket_coefficient):
        value = exact(m3, g)
        return value + 1e-6 if (m3 % 2, g) == (1, target) else value

    monkeypatch.setattr(misiolek.suites, "bracket_coefficient", coefficient)
    if injected == "dual_and_coefficient":
        monkeypatch.setattr(misiolek.suites, "QuadratureGrid", _SkewedGrid)
    result = oracle_suite(3)
    want = _INJECTED_FAILURES if injected == "dual_and_coefficient" else _INJECTED_FAILURES[4:]
    assert result.failures == want
    summary = result.summary()
    assert (summary["checks"], summary["failures"], summary["first_failure"]) == (1008, len(want), want[0])
    assert 1e-6 <= summary["max_deviation"] < 1.01e-6


def test_oracle_suite_fails_on_a_nan_coefficient(monkeypatch, capsys):
    # A NaN deviation is never within tolerance; max_deviation stays the
    # largest finite one, so the failed run still writes its summary.
    def coefficient(m3, g, exact=misiolek.suites.bracket_coefficient):
        return math.nan if m3 % 2 else exact(m3, g)

    monkeypatch.setattr(misiolek.suites, "bracket_coefficient", coefficient)
    # The suite compares each nonzero exact coefficient with l3 <= 3.
    odd = sum(l3 <= 3 for a, b in _suite_pairs(3) if (a.m + b.m) % 2 for l3 in bracket_expand(a, b))
    result = oracle_suite(3)
    assert len(result.failures) == odd > 0
    assert all(f.startswith("structure coefficient off at") and f.endswith(": dev nan")
               for f in result.failures)
    assert 0 < result.max_deviation < 1e-12
    assert main(["verify", "--suite", "oracle", "--lmax", "3"]) == 1
    out, err = capsys.readouterr()
    summary = json.loads(out)
    assert (summary["checks"], summary["failures"]) == (1008, odd)
    assert summary["max_deviation"] == result.max_deviation
    assert err.splitlines()[0] == f"FAIL [oracle] {result.failures[0]}"


class _NaNGrid(QuadratureGrid):
    """A grid whose Y_{2 1} dual is NaN at one node."""

    @classmethod
    def for_degree(cls, l_max):
        grid = super().for_degree(l_max)
        grid.harmonic(HarmonicIndex(2, 1)).dual[0, 0] = math.nan
        return grid


def test_oracle_suite_fails_on_a_nan_pairing(monkeypatch):
    monkeypatch.setattr(misiolek.suites, "QuadratureGrid", _NaNGrid)
    result = oracle_suite(3)
    pairing = [f for f in result.failures if f.startswith("pairing identity off")]
    # Each of the 16 harmonics pairs with Y_{2 1}'s NaN dual.
    assert len(pairing) == 16 and all(f.endswith(", HarmonicIndex(l=2, m=1): dev nan") for f in pairing)
    assert 0 < result.max_deviation < 1e-12


def test_oracle_matches_exact_pipeline_small(grid):
    indices = [HarmonicIndex(l, m) for l in range(1, 5) for m in range(-l, l + 1)]
    worst = 0.0
    for a in indices:
        for b in indices:
            expansion = bracket_expand(a, b)
            for l3, got in oracle_structure_coeff(a, grid.harmonic(b), grid)[0].items():
                g = expansion.get(l3)
                worst = max(worst, abs(got - (0j if g is None else bracket_coefficient(a.m + b.m, g))))
    assert worst < 1e-12


def test_oracle_matches_exact_pipeline_above_degree_85():
    # Sampled, not swept: each cached harmonic at L = 100 holds three complex
    # arrays of 202 x 301 nodes, 2.9 MB, and oracle_structure_coeff would cache
    # the dual of every degree of the order m3, 0.97 MB each.  The sampled
    # projections are its values bit for bit
    # (test_structure_coeff_is_the_direct_projection_bit_for_bit).
    tolerance = 1e-9  # times max(1, |exact|), fixed before the run
    wide = QuadratureGrid.for_degree(100)
    pairs = (((100, 100), (99, -98)), ((90, -1), (86, 86)), ((95, 0), (88, 3)), ((87, -40), (100, 55)))
    for (l1, m1), (l2, m2) in pairs:
        a, b = HarmonicIndex(l1, m1), HarmonicIndex(l2, m2)
        expansion = bracket_expand(a, b)
        m3 = abs(m1 + m2)
        for l3 in (m3, m3 + 1, (m3 + 100) // 2, 99, 100):
            g = expansion.get(l3)
            exact = 0j if g is None else bracket_coefficient(m1 + m2, g)
            got = _projected_directly(wide, a, b, l3)
            assert abs(got - exact) <= tolerance * max(1.0, abs(exact)), (l1, m1, l2, m2, l3)
