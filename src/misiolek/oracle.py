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


class GridFunction:
    """Complex samples on a grid with analytic derivative fields alongside.

    Grid harmonics also carry ``dual``, the conjugated samples times the
    quadrature weights, so that pairing against them is one dot product.
    """

    __slots__ = ("values", "d_lam", "d_mu", "dual")

    def __init__(self, values: np.ndarray, d_lam: Optional[np.ndarray] = None,
                 d_mu: Optional[np.ndarray] = None, dual: Optional[np.ndarray] = None) -> None:
        self.values = values
        self.d_lam = d_lam
        self.d_mu = d_mu
        self.dual = dual

    def has_derivatives(self) -> bool:
        return self.d_lam is not None and self.d_mu is not None


class QuadratureGrid:
    """Gauss-Legendre nodes in mu times a uniform periodic rule in lambda.

    With n_mu >= l_max+1 the mu rule is exact for polynomial integrands up
    to degree 2 l_max + 1 and the lambda rule for trigonometric orders up to
    n_lam - 1; the sizing below leaves margin for triple products.
    """

    def __init__(self, l_max: int, mu: np.ndarray, mu_weights: np.ndarray, lam: np.ndarray,
                 lam_weight: float) -> None:
        self.l_max = l_max
        self.mu = mu
        self.mu_weights = mu_weights
        self.lam = lam
        self.lam_weight = lam_weight
        self._harmonics: Dict[Tuple[int, int], GridFunction] = {}
        # The flattened Poisson bracket of the most recently projected pair, keyed
        # by (l1, m1, l2, m2): one slot, replaced whenever the pair changes.
        self._bracket: Optional[Tuple[Tuple[int, int, int, int], np.ndarray]] = None

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

    def _cached(self, l: int, m: int) -> GridFunction:
        """The grid harmonic (l, m); a first request is validated by ``harmonic``."""
        fn = self._harmonics.get((l, m))
        return fn if fn is not None else self.harmonic(HarmonicIndex(l, m))

    def _bracket_values(self, l1: int, m1: int, l2: int, m2: int) -> np.ndarray:
        """Flattened {Y_{l1 m1}, Y_{l2 m2}}, formed only when the pair differs from the last."""
        key = (l1, m1, l2, m2)
        if self._bracket is None or self._bracket[0] != key:
            bracket = poisson_bracket(self._cached(l1, m1), self._cached(l2, m2))
            self._bracket = (key, bracket.values.ravel())
        return self._bracket[1]


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
    grid must resolve all three degrees.  The grid keeps the bracket of the
    last pair it projected, so a caller that varies l3 innermost forms one
    bracket per pair.  The value is bit for bit that of
    ``grid.pair_conjugated(poisson_bracket(Y_a, Y_b), Y_c)``.
    """
    if grid is None:
        grid = QuadratureGrid.for_degree(max(l1, l2, l3))
    if max(l1, l2, l3) > grid.l_max:
        raise ValueError(f"degrees exceed grid resolution l_max={grid.l_max}")
    bracket = grid._bracket_values(l1, m1, l2, m2)
    return complex(np.dot(bracket, grid._cached(l3, m3).dual.ravel()))
