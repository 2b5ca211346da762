"""Exact conjugate-point criteria for ideal flow on the rotating 2-sphere.

Wigner 3j symbols and spherical structure constants in exact radical
arithmetic, the Misiolek criterion in its flat, Coriolis, zonal critical
ratio and Rossby-Haurwitz wave forms, and a quadrature oracle that
re-derives every structure constant from pointwise Poisson brackets.
"""

from .exact import SignedSqrtRational, factorial
from .structure import HarmonicIndex, bracket_coefficient, bracket_expand, g_real
from .wigner import (
    ClosedFormDomainError,
    threej_closed_110,
    threej_closed_stretched,
    threej_lm,
    threej_recursive_112,
)
from .criterion import (
    MCReport,
    MCValue,
    RHWave,
    critical_ratio,
    critical_table,
    mc_combination,
    mc_coriolis,
    mc_flat,
    rhw_mc,
    rhw_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormDomainError",
    "HarmonicIndex",
    "MCReport",
    "MCValue",
    "RHWave",
    "SignedSqrtRational",
    "bracket_coefficient",
    "bracket_expand",
    "critical_ratio",
    "critical_table",
    "factorial",
    "g_real",
    "mc_combination",
    "mc_coriolis",
    "mc_flat",
    "rhw_mc",
    "rhw_threshold",
    "threej_closed_110",
    "threej_closed_stretched",
    "threej_lm",
    "threej_recursive_112",
]
