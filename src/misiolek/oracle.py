"""Brute-force verification path for the structure constants.

Everything here is floating point on purpose: harmonics are evaluated
pointwise from one normalised Legendre recurrence, Poisson brackets are
formed from analytic derivatives on a Gauss-Legendre x uniform grid, and
structure constants are recovered by projection: one bracket call brackets
a harmonic with a stack of probes of one order, and each bracket takes one
dot product per output degree.  The Gauss-Legendre rule comes from the same
recurrence, by Newton's method on its zonal member, so the oracle needs
nothing from numpy beyond array arithmetic.  Agreement with the exact
Dowker pipeline is the central anti-drift check of the whole artifact.

The recurrence carries only factors of order one, so no degree leaves double
range; the grid's memory is the only cap on the degree it resolves.

Convention: the Condon-Shortley phase (-1)^m multiplies positive orders
only, which is the unique reading that satisfies the conjugation identity
Y*_{lm} = (-1)^m Y_{l,-m}; the Legendre recurrence is phase-free.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .structure import HarmonicIndex

ArrayLike = Union[float, np.ndarray]


def normalised_legendre(l: int, m: int, mu: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """(P, dP/dmu) for P = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P^m_l, 0 <= m <= l.

    P^m_l is the Ferrers function with no phase, so 2 pi times the integral
    of P^2 over mu is 1.  The fully normalised recurrences of Holmes and
    Featherstone (J. Geodesy 76 (2002) 279) carry only factors of order one:
    P_mm = (4 pi)^(-1/2) prod_{k<=m} sqrt((2k+1)/(2k)) (1-mu^2)^(m/2), then
    P_lm = a mu P_{l-1,m} - b P_{l-2,m} with a = sqrt((4l^2-1)/(l^2-m^2)) and
    b = sqrt(((l-1)^2-m^2)(2l+1)/((l^2-m^2)(2l-3))), and
    (1-mu^2) dP_lm/dmu = -l mu P_lm + sqrt((2l+1)(l^2-m^2)/(2l-1)) P_{l-1,m}.
    The derivative is for interior mu only, which quadrature nodes are, so
    mu outside the open interval (-1, 1) is rejected.
    """
    if not 0 <= m <= l:
        raise ValueError("requires 0 <= m <= l")
    mu = np.asarray(mu, dtype=float)
    if not np.abs(mu).max() < 1.0:  # nan fails too; np.all would cost a 128 kB buffer
        raise ValueError("requires -1 < mu < 1")
    s = np.sqrt(1.0 - mu * mu)
    p = np.full_like(mu, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, m + 1):
        p = p * (math.sqrt((2 * k + 1) / (2 * k)) * s)
    below = np.zeros_like(mu)
    if l > m:
        below, p = p, math.sqrt(2 * m + 3) * mu * p
        for deg in range(m + 2, l + 1):
            span = deg * deg - m * m
            a = math.sqrt((4 * deg * deg - 1) / span)
            b = math.sqrt(((deg - 1) ** 2 - m * m) * (2 * deg + 1) / (span * (2 * deg - 3)))
            below, p = p, a * mu * p - b * below
    step = math.sqrt((2 * l + 1) * (l * l - m * m) / (2 * l - 1)) if l > m else 0.0
    return p, (step * below - l * mu * p) / (1.0 - mu * mu)


#: Newton steps allowed for a Gauss-Legendre rule; from the cosine guesses
#: every rule of 2 to 1000 nodes settles within five.
_NEWTON_STEPS = 10
#: A Newton step this small leaves the nodes at their double-precision roots.
_NEWTON_TOLERANCE = 4 * 2.0 ** -52


def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes, ascending, and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The nodes are the roots of ``normalised_legendre(n, 0, .)``, found by
    Newton's method from the guesses cos(pi (k - 1/4) / (n + 1/2)), one per
    root in (0, 1); the weight of a node mu is (2n+1) / (2 pi (1-mu^2) P'(mu)^2),
    the classical 2 / ((1-mu^2) P_n'(mu)^2) in the recurrence's normalisation.
    The positive half is mirrored, so ``mu[::-1] == -mu`` and
    ``w[::-1] == w`` hold exactly, and an odd n has the node 0.0.  Raises
    ArithmeticError if a Newton step is still above 4 eps after
    ``_NEWTON_STEPS`` steps.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    k = np.arange(1, n // 2 + 1)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))  # descending in (0, 1)
    for _ in range(_NEWTON_STEPS):
        p, dp = normalised_legendre(n, 0, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= _NEWTON_TOLERANCE:
            break
    else:
        raise ArithmeticError(f"Newton iteration for the {n}-point rule did not settle")
    x = np.append(x, [0.0] * (n % 2))  # P_n(0) = 0 exactly for odd n
    _, dp = normalised_legendre(n, 0, x)
    w = (2 * n + 1) / (2.0 * math.pi * (1.0 - x * x) * dp * dp)
    half = n // 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


class GridFunction:
    """Complex samples on a grid, with what a Poisson bracket needs alongside.

    A function that enters a bracket carries its lambda-order ``m``, so that
    its lambda-derivative is ``1j * m * values``, and its mu-derivative
    samples ``d_mu``.  Grid harmonics also carry ``dual``, the conjugated
    samples times the quadrature weights, so that pairing against them is
    one dot product.  Functions of one order can be stacked on a leading
    axis of ``values`` and ``d_mu``; a bracket broadcasts over it.
    """

    __slots__ = ("values", "m", "d_mu", "dual")

    def __init__(self, values: np.ndarray, m: Optional[int] = None,
                 d_mu: Optional[np.ndarray] = None, dual: Optional[np.ndarray] = None) -> None:
        self.values = values
        self.m = m
        self.d_mu = d_mu
        self.dual = dual

    def has_derivatives(self) -> bool:
        return self.m is not None and self.d_mu is not None


class QuadratureGrid:
    """Gauss-Legendre nodes in mu times a uniform periodic rule in lambda.

    The mu rule is ``gauss_legendre(n_mu)``.  With n_mu >= l_max+1 it is
    exact for polynomial integrands up to degree 2 l_max + 1; the mu
    integrands are not polynomials, so ``for_degree`` takes n_mu = 2 l_max + 2
    for accuracy.  The uniform n_lam-point rule sums e^{ik lambda} to zero
    for every 0 < |k| < n_lam, so it is exact for trigonometric polynomials
    of order below n_lam.  Every lambda integrand here is one: a pairing of
    two harmonics has order <= 2 l_max, and a bracket of two harmonics
    paired with a third order <= 3 l_max, so ``for_degree`` takes
    n_lam = 3 l_max + 1, the fewest points exact for both.
    """

    def __init__(self, l_max: int, mu: np.ndarray, mu_weights: np.ndarray, lam: np.ndarray,
                 lam_weight: float) -> None:
        self.l_max = l_max
        self.mu = mu
        self.mu_weights = mu_weights
        self.lam = lam
        self.lam_weight = lam_weight
        self._harmonics: Dict[Tuple[int, int], GridFunction] = {}
        # Per order m, the flattened duals of Y_{l m} for l = |m| .. l_max:
        # views of a cached harmonic's dual where there is one.
        self._order_duals: Dict[int, List[np.ndarray]] = {}

    @classmethod
    def for_degree(cls, l_max: int) -> "QuadratureGrid":
        if l_max < 0:
            raise ValueError("l_max must be nonnegative")
        n_mu = 2 * l_max + 2
        n_lam = 3 * l_max + 1
        mu, w = gauss_legendre(n_mu)
        lam = 2.0 * math.pi * np.arange(n_lam) / n_lam
        return cls(l_max, mu, w, lam, 2.0 * math.pi / n_lam)

    def pair_plain(self, f: GridFunction, g: GridFunction) -> complex:
        """Unconjugated pairing <f, g> = integral of f*g; g must be a grid harmonic."""
        return complex(np.vdot(_dual(g), f.values))

    def pair_conjugated(self, f: GridFunction, g: GridFunction) -> complex:
        """Hermitian pairing integral of f * conj(g); g must be a grid harmonic."""
        return complex(np.dot(f.values.ravel(), _dual(g).ravel()))

    def _samples(self, idx: HarmonicIndex) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, dP/dmu, phase) of Y_{lm} at the nodes, with the sign convention."""
        p, dp = normalised_legendre(idx.l, abs(idx.m), self.mu)
        if idx.m > 0 and idx.m % 2:
            p, dp = -p, -dp
        phase = np.exp(1j * idx.m * self.lam)
        return p[:, None] * phase[None, :], dp, phase

    def _dual_of(self, values: np.ndarray) -> np.ndarray:
        return np.conj(values) * (self.mu_weights * self.lam_weight)[:, None]

    def harmonic(self, idx: HarmonicIndex) -> GridFunction:
        """Y_{lm} sampled with its order, its analytic mu-derivative and its dual."""
        if idx.l > self.l_max:
            raise ValueError(f"degree {idx.l} exceeds grid resolution l_max={self.l_max}")
        key = (idx.l, idx.m)
        cached = self._harmonics.get(key)
        if cached is not None:
            return cached
        values, dp, phase = self._samples(idx)
        fn = GridFunction(
            values=values,
            m=idx.m,
            d_mu=dp[:, None] * phase[None, :],
            dual=self._dual_of(values),
        )
        self._harmonics[key] = fn
        return fn

    def _cached(self, idx: HarmonicIndex) -> GridFunction:
        """The grid harmonic idx; a first request is validated by ``harmonic``."""
        fn = self._harmonics.get((idx.l, idx.m))
        return fn if fn is not None else self.harmonic(idx)

    def _duals_of_order(self, m: int) -> List[np.ndarray]:
        """Flattened duals of Y_{l m} for l = |m| .. l_max, in ascending l.

        A cached harmonic lends its dual as a view; any other dual is built
        from fresh samples, and the harmonic itself is not cached.
        """
        duals = self._order_duals.get(m)
        if duals is None:
            duals = []
            for l in range(abs(m), self.l_max + 1):
                fn = self._harmonics.get((l, m))
                dual = fn.dual if fn is not None else self._dual_of(self._samples(HarmonicIndex(l, m))[0])
                duals.append(dual.ravel())
            self._order_duals[m] = duals
        return duals


def _dual(g: GridFunction) -> np.ndarray:
    """The quadrature dual of g: conj(g) * dA at each node, dA = d(lambda) d(mu)."""
    if g.dual is None:
        raise ValueError("the second argument of a pairing must be a grid harmonic")
    return g.dual


def poisson_bracket(f: GridFunction, g: GridFunction) -> GridFunction:
    """{f, g} = f_lam g_mu - f_mu g_lam, pointwise from analytic derivatives.

    The lambda-derivatives are formed here, as ``1j * m * values``.
    """
    if not (f.has_derivatives() and g.has_derivatives()):
        raise ValueError("both inputs must carry derivative fields")
    return GridFunction(values=(1j * f.m * f.values) * g.d_mu - f.d_mu * (1j * g.m * g.values))


def oracle_structure_coeff(a: HarmonicIndex, probes: GridFunction,
                           grid: QuadratureGrid) -> List[Dict[int, complex]]:
    """Projections {l3: G^{l3 m3}} of {Y_a, Y_b} onto Y_{l3 m3}, one dict per probe Y_b.

    ``probes`` is one grid harmonic Y_b, or a ``GridFunction`` stacking grid
    harmonics of one order m on a leading axis (``values`` and ``d_mu``,
    with ``m`` the common order); m3 = a.m + m.  Computed entirely on the
    grid, independent of the exact pipeline: one ``poisson_bracket`` call
    forms every bracket with Y_a, then each flattened bracket takes one dot
    product against a cached dual for every l3 from |m3| to ``grid.l_max``,
    ascending.  The list holds one dict per probe, in the order of the
    leading axis (one dict for a single harmonic), each ``{}`` when
    |m3| > l_max.  The grid must resolve a's degree and the probes must be
    sampled on it, or ValueError is raised.  A call caches Y_a, and on the
    first call for the order m3 the dual of every degree of that order, but
    no other harmonic.  Each value is bit for bit that of
    ``grid.pair_conjugated(poisson_bracket(Y_a, Y_b), Y_{l3 m3})``.
    """
    shape = (len(grid.mu), len(grid.lam))
    if a.l > grid.l_max:
        raise ValueError(f"degree {a.l} exceeds grid resolution l_max={grid.l_max}")
    if probes.values.shape[-2:] != shape:
        raise ValueError("the probes must be sampled on this grid")
    m3 = a.m + probes.m
    brackets = poisson_bracket(grid._cached(a), probes).values.reshape(-1, shape[0] * shape[1])
    duals = grid._duals_of_order(m3)
    return [{l3: complex(row.dot(dual)) for l3, dual in enumerate(duals, start=abs(m3))}
            for row in brackets]
