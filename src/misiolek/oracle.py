"""Brute-force verification path for the structure constants.

Everything here is floating point on purpose: harmonics are evaluated
pointwise from Legendre recurrences, Poisson brackets are formed from
analytic derivatives on a Gauss-Legendre x uniform grid, and structure
constants are recovered by projection.  Agreement with the exact Dowker
pipeline is the central anti-drift check of the whole artifact.

Convention: the Condon-Shortley phase (-1)^m multiplies positive orders
only, which is the unique reading that satisfies the conjugation identity
Y*_{lm} = (-1)^m Y_{l,-m}; the Legendre recurrences are phase-free.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .structure import HarmonicIndex

ArrayLike = Union[float, np.ndarray]


def legendre_p(l: int, m: int, mu: ArrayLike) -> ArrayLike:
    """Associated Legendre function P^m_l (Ferrers, no phase), 0 <= m <= l.

    Plain upward recurrence in the degree; adequate for the moderate
    degrees the oracle grids ever see.  Raises OverflowError where the
    unnormalised values leave double range (from order about 150 on).
    """
    if not 0 <= m <= l:
        raise ValueError("requires 0 <= m <= l")
    mu = np.asarray(mu, dtype=float)
    # Overflow is reported once, by the isfinite check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sqrt(1.0 - mu * mu)
        # P^m_m = (2m-1)!! * s^m
        p = np.ones_like(mu)
        for k in range(1, m + 1):
            p = p * (2 * k - 1) * s
        if l > m:
            p_prev, p = p, mu * (2 * m + 1) * p
            for deg in range(m + 2, l + 1):
                p_prev, p = p, (mu * (2 * deg - 1) * p - (deg + m - 1) * p_prev) / (deg - m)
    if not np.all(np.isfinite(p)):
        raise OverflowError(f"P^{m}_{l} exceeds double range")
    return p


def legendre_p_deriv(l: int, m: int, mu: ArrayLike) -> ArrayLike:
    """d/dmu of P^m_l via (1-mu^2) P' = (l+m) P_{l-1} - l mu P_l.

    Valid away from the poles; quadrature nodes are interior so this is
    never evaluated at mu = +-1.
    """
    mu = np.asarray(mu, dtype=float)
    below = legendre_p(l - 1, m, mu) if l - 1 >= m else np.zeros_like(mu)
    return ((l + m) * below - l * mu * legendre_p(l, m, mu)) / (1.0 - mu * mu)


def _norm_coeff(l: int, m: int) -> float:
    """C^m_l = phase * sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!), exact ratio first.

    Raises OverflowError where the ratio falls below the normal double range
    (for l = |m| from 86 on), instead of losing precision and then reading 0.
    """
    am = abs(m)
    ratio = float(Fraction(math.factorial(l - am), math.factorial(l + am)))
    if ratio < sys.float_info.min:
        raise OverflowError(f"(l-|m|)!/(l+|m|)! for l={l}, m={m} is below double range")
    phase = -1.0 if (m > 0 and m % 2) else 1.0
    return phase * math.sqrt((2 * l + 1) * ratio / (4.0 * math.pi))


def ylm_eval(idx: HarmonicIndex, lam: ArrayLike, mu: ArrayLike) -> complex:
    """Complex spherical harmonic C^m_l P^{|m|}_l(mu) e^{i m lambda}."""
    return _norm_coeff(idx.l, idx.m) * legendre_p(idx.l, abs(idx.m), mu) * np.exp(1j * idx.m * np.asarray(lam))


@dataclass
class GridFunction:
    """Complex samples on a grid with analytic derivative fields alongside.

    Grid harmonics also carry ``dual``, the conjugated samples times the
    quadrature weights, so that pairing against them is one dot product.
    """

    values: np.ndarray
    d_lam: Optional[np.ndarray] = None
    d_mu: Optional[np.ndarray] = None
    dual: Optional[np.ndarray] = None

    def has_derivatives(self) -> bool:
        return self.d_lam is not None and self.d_mu is not None


@dataclass
class QuadratureGrid:
    """Gauss-Legendre nodes in mu times a uniform periodic rule in lambda.

    With n_mu >= l_max+1 the mu rule is exact for polynomial integrands up
    to degree 2 l_max + 1 and the lambda rule for trigonometric orders up to
    n_lam - 1; the sizing below leaves margin for triple products.
    """

    l_max: int
    mu: np.ndarray
    mu_weights: np.ndarray
    lam: np.ndarray
    lam_weight: float
    _harmonics: Dict[Tuple[int, int], GridFunction] = field(default_factory=dict, repr=False)

    @classmethod
    def for_degree(cls, l_max: int) -> "QuadratureGrid":
        if l_max < 0:
            raise ValueError("l_max must be nonnegative")
        n_mu = 2 * l_max + 2
        n_lam = 4 * l_max + 4
        mu, w = np.polynomial.legendre.leggauss(n_mu)
        lam = 2.0 * math.pi * np.arange(n_lam) / n_lam
        return cls(l_max, mu, w, lam, 2.0 * math.pi / n_lam)

    def pair_plain(self, f: GridFunction, g: GridFunction) -> complex:
        """Unconjugated pairing <f, g> = integral of f*g; g must be a grid harmonic."""
        return complex(np.vdot(_dual(g), f.values))

    def pair_conjugated(self, f: GridFunction, g: GridFunction) -> complex:
        """Hermitian pairing integral of f * conj(g); g must be a grid harmonic."""
        return complex(np.dot(f.values.ravel(), _dual(g).ravel()))

    def harmonic(self, idx: HarmonicIndex) -> GridFunction:
        """Y_{lm} sampled with its analytic lambda- and mu-derivatives and its dual."""
        if idx.l > self.l_max:
            raise ValueError(f"degree {idx.l} exceeds grid resolution l_max={self.l_max}")
        key = (idx.l, idx.m)
        cached = self._harmonics.get(key)
        if cached is not None:
            return cached
        am = abs(idx.m)
        coeff = _norm_coeff(idx.l, idx.m)
        p = coeff * np.asarray(legendre_p(idx.l, am, self.mu))
        dp = coeff * np.asarray(legendre_p_deriv(idx.l, am, self.mu))
        phase = np.exp(1j * idx.m * self.lam)
        values = p[:, None] * phase[None, :]
        fn = GridFunction(
            values=values,
            d_lam=1j * idx.m * values,
            d_mu=dp[:, None] * phase[None, :],
            dual=np.conj(values) * (self.mu_weights * self.lam_weight)[:, None],
        )
        self._harmonics[key] = fn
        return fn

    def mu_field(self) -> GridFunction:
        """The coordinate function mu with its trivial derivatives."""
        ones = np.ones((len(self.mu), len(self.lam)))
        return GridFunction(
            values=self.mu[:, None] * np.ones(len(self.lam))[None, :] + 0j,
            d_lam=np.zeros_like(ones, dtype=complex),
            d_mu=ones.astype(complex),
        )


def _dual(g: GridFunction) -> np.ndarray:
    """The quadrature dual of g: conj(g) * dA at each node, dA = d(lambda) d(mu)."""
    if g.dual is None:
        raise ValueError("the second argument of a pairing must be a grid harmonic")
    return g.dual


def poisson_bracket(f: GridFunction, g: GridFunction) -> GridFunction:
    """{f, g} = f_lam g_mu - f_mu g_lam, pointwise from analytic derivatives."""
    if not (f.has_derivatives() and g.has_derivatives()):
        raise ValueError("both inputs must carry derivative fields")
    return GridFunction(values=f.d_lam * g.d_mu - f.d_mu * g.d_lam)


def oracle_structure_coeff(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int,
                           grid: Optional[QuadratureGrid] = None) -> complex:
    """Projection coefficient G^{l3 m3} of {Y_{l1 m1}, Y_{l2 m2}} onto Y_{l3 m3}.

    Computed entirely on the grid, independent of the exact pipeline.  The
    grid must resolve all three degrees.
    """
    if grid is None:
        grid = QuadratureGrid.for_degree(max(l1, l2, l3))
    if max(l1, l2, l3) > grid.l_max:
        raise ValueError(f"degrees exceed grid resolution l_max={grid.l_max}")
    bracket = poisson_bracket(grid.harmonic(HarmonicIndex(l1, m1)), grid.harmonic(HarmonicIndex(l2, m2)))
    return grid.pair_conjugated(bracket, grid.harmonic(HarmonicIndex(l3, m3)))
