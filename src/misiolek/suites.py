"""Invariant suites shared by the command-line `verify` entry and the tests.

Each suite sweeps one family of exact identities (or oracle comparisons) up
to a degree cap and reports check/failure counts in a ``SuiteResult``;
exact identities tolerate nothing, oracle-backed ones report their worst
deviation.  The wigner, structure, theorem and table suites are made of
``check_*`` blocks that add to a given ``SuiteResult`` (the symmetry block
is ``structure.validate_symmetries``, the theorem blocks are in
``criterion``); the acceptance tests and scripts call these blocks too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .checks import SuiteResult
from .criterion import (
    check_order_one_positivity,
    check_probe_positivity,
    check_zonal_nonpositivity,
    critical_table,
    mc_coriolis,
)
from .oracle import GridFunction, QuadratureGrid, oracle_structure_coeff
from .reference import REFERENCE_RATIOS, REFERENCE_TOLERANCE, REFERENCE_UNDEFINED
from .structure import (
    HarmonicIndex,
    _is_negation,
    bracket_coefficient,
    bracket_expand,
    g_real,
    validate_symmetries,
)
from .wigner import (
    ClosedFormDomainError,
    threej_closed_110,
    threej_closed_stretched,
    threej_lm,
    threej_recursive_112,
)

SUITE_NAMES = ("wigner", "structure", "oracle", "theorem", "table")

#: Default degree cap and smallest accepted cap of each suite that takes one.
_CAPS = {"wigner": (12, 0), "structure": (10, 0), "oracle": (6, 0), "theorem": (12, 3)}

#: Largest deviation of an oracle structure coefficient from the exact one.
ORACLE_TOLERANCE = 1e-9


def suite_cap(name: str, l_max: Optional[int] = None) -> Optional[int]:
    """Degree cap that suite ``name`` runs at: ``l_max``, or the default if None.

    Raises ValueError for an unknown suite or a cap outside the suite's
    domain, so a caller can check every cap before running any suite.  The
    table suite checks fixed tables and ignores ``l_max``; its cap is None.
    """
    if name == "table":
        return None
    if name not in _CAPS:
        raise ValueError(f"unknown suite {name!r}")
    default, least = _CAPS[name]
    if l_max is None:
        return default
    if l_max < least:
        raise ValueError(f"requires l_max >= {least}" if least else "l_max must be nonnegative")
    return l_max


def check_stretched_forms(res: SuiteResult, l_max: int) -> None:
    """Stretched closed form (l1 m l3; m1 -m m-m1) against the Racah path."""
    for l1 in range(l_max + 1):
        for m in range(l_max + 1):
            for l3 in range(abs(l1 - m), min(l1 + m, l_max) + 1):
                for m1 in range(-l1, l1 + 1):
                    if abs(m - m1) > l3:
                        continue
                    res.checks += 1
                    if threej_closed_stretched(l1, m, l3, m1) != threej_lm(l1, m, l3, m1, -m, m - m1):
                        res.fail(f"stretched closed form off at ({l1},{m},{l3},{m1})")


def check_order_one_forms(res: SuiteResult, l_max: int) -> None:
    """(1 -1 0) closed form and, inside its domain, (1 1 -2) recursion against the Racah path."""
    for l1 in range(1, l_max + 1):
        for l2 in range(1, l_max + 1):
            for l3 in range(abs(l1 - l2), min(l1 + l2, l_max) + 1):
                if (l1 + l2 + l3) % 2 == 0:
                    continue
                res.checks += 1
                if threej_closed_110(l1, l2, l3) != threej_lm(l1, l2, l3, 1, -1, 0):
                    res.fail(f"(1 -1 0) closed form off at ({l1},{l2},{l3})")
                try:
                    recursive = threej_recursive_112(l1, l2, l3)
                except ClosedFormDomainError:
                    continue
                res.checks += 1
                if recursive != threej_lm(l1, l2, l3, 1, 1, -2):
                    res.fail(f"(1 1 -2) recursion off at ({l1},{l2},{l3})")


def check_threej_symmetries(res: SuiteResult, l_max: int) -> None:
    """Column swap and order negation, two checks per 3j tuple.

    Both symmetries multiply the symbol by (-1)^(l1+l2+l3), so each is
    compared with the base symbol on its canonical integers, its sign flipped
    by that parity, without building the scaled value.
    """
    for l1 in range(l_max + 1):
        for l2 in range(l_max + 1):
            for l3 in range(abs(l1 - l2), min(l1 + l2, l_max) + 1):
                sign = 1 if (l1 + l2 + l3) % 2 == 0 else -1
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        m3 = -(m1 + m2)
                        if abs(m3) > l3:
                            continue
                        base = threej_lm(l1, l2, l3, m1, m2, m3)
                        want = (sign * base.sign, base.num, base.den)
                        res.checks += 2
                        swapped = threej_lm(l2, l1, l3, m2, m1, m3)
                        if (swapped.sign, swapped.num, swapped.den) != want:
                            res.fail(f"column swap off at ({l1},{l2},{l3},{m1},{m2})")
                        negated = threej_lm(l1, l2, l3, -m1, -m2, -m3)
                        if (negated.sign, negated.num, negated.den) != want:
                            res.fail(f"order negation off at ({l1},{l2},{l3},{m1},{m2})")


def check_orthogonality(res: SuiteResult, l_max: int) -> None:
    """Sum over m1 of the squared symbols times (2 l3 + 1) is 1; degrees stop at 8."""
    for l3 in range(min(l_max, 8) + 1):
        for m3 in range(-l3, l3 + 1):
            for l1 in range(min(l_max, 8) + 1):
                for l2 in range(abs(l1 - l3), min(l1 + l3, 8) + 1):
                    total = Fraction(0)
                    for m1 in range(-l1, l1 + 1):
                        m2 = -m1 - m3
                        if abs(m2) > l2:
                            continue
                        total += threej_lm(l1, l2, l3, m1, m2, m3).radicand
                    res.checks += 1
                    if total * (2 * l3 + 1) != 1:
                        res.fail(f"orthogonality off at ({l1},{l2},{l3},{m3})")


def wigner_suite(l_max: int = 12) -> SuiteResult:
    """Closed forms against the Racah path, symmetries, and orthogonality."""
    suite_cap("wigner", l_max)
    res = SuiteResult("wigner", l_max)
    for block in (check_stretched_forms, check_order_one_forms, check_threej_symmetries,
                  check_orthogonality):
        block(res, l_max)
    return res


def structure_suite(l_max: int = 10) -> SuiteResult:
    """Structure-constant identities, selection-rule zeros, antisymmetry."""
    suite_cap("structure", l_max)
    res = SuiteResult("structure", l_max)
    validate_symmetries(res, l_max)
    for l1 in range(1, l_max + 1):
        for l2 in range(1, l_max + 1):
            for l3 in range(l_max + 1):
                inside = abs(l1 - l2) + 1 <= l3 <= l1 + l2 - 1
                parity_even = (l1 + l2 + l3) % 2 == 0
                if inside and not parity_even:
                    continue
                for m1 in (-1, 0, 1):
                    for m2 in (-1, 0, 1):
                        m3 = -(m1 + m2)
                        if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
                            continue
                        res.checks += 1
                        if not g_real(l1, m1, l2, m2, l3, m3).is_zero():
                            reason = "parity" if parity_even else "triangle"
                            res.fail(f"{reason} zero violated at ({l1},{m1},{l2},{m2},{l3},{m3})")
    # Bracket antisymmetry, one unordered degree pair {l1, l2} at a time: each
    # ordered pair is expanded once and its mirror read back from the group.
    cap = min(l_max, 6)
    harmonics = [[HarmonicIndex(l, m) for m in range(-l, l + 1)] for l in range(cap + 1)]
    antisymmetry = []
    for l1 in range(1, cap + 1):
        for l2 in range(l1, cap + 1):
            expansions = {(a.l, a.m, b.l, b.m): bracket_expand(a, b)
                          for la, lb in dict.fromkeys(((l1, l2), (l2, l1)))
                          for a in harmonics[la] for b in harmonics[lb]}
            res.checks += len(expansions)
            for pair, left in expansions.items():
                la, ma, lb, mb = pair
                right = expansions[lb, mb, la, ma]
                if list(left) != list(right):
                    antisymmetry.append((pair, f"bracket antisymmetry degrees off at ({la},{ma},{lb},{mb})"))
                    continue
                for l3, g in left.items():
                    if not _is_negation(right[l3], g):
                        antisymmetry.append((pair, f"bracket antisymmetry off at ({la},{ma},{lb},{mb},{l3})"))
    # Stable: in (l1, m1, l2, m2) order, and per pair in ascending l3.
    antisymmetry.sort(key=itemgetter(0))
    res.failures.extend(message for _, message in antisymmetry)
    return res


def oracle_suite(l_max: int = 6) -> SuiteResult:
    """Quadrature projections against the exact pipeline, plus grid identities."""
    import numpy as np  # here, so that importing suites loads numpy only through the oracle

    suite_cap("oracle", l_max)
    res = SuiteResult("oracle", l_max)
    grid = QuadratureGrid.for_degree(l_max)
    indices = [HarmonicIndex(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    harmonics = [grid.harmonic(i) for i in indices]  # Y_{lm} at position l(l+1) + m
    # Both pairings of Y_a with every Y_b at once: the stacked flattened duals
    # times Y_a's flattened values is row a of grid.pair_conjugated, and with
    # the duals conjugated in place, of grid.pair_plain.  Two matrix-matrix
    # products give the same summaries at degrees 0 to 8, but their BLAS
    # workspace costs 0.3 MB more peak RSS.
    dual = np.stack([y.dual.ravel() for y in harmonics])
    conj = np.array([dual @ y.values.ravel() for y in harmonics])
    np.conjugate(dual, out=dual)
    plain = np.array([dual @ y.values.ravel() for y in harmonics])
    del dual
    n = len(indices)
    want_plain = np.zeros((n, n))
    for i, a in enumerate(indices):
        want_plain[i, i - 2 * a.m] = (-1.0) ** a.m  # Y_{l,-m} is 2m places before Y_{lm}
    off = np.maximum(abs(plain - want_plain), abs(conj - np.eye(n)))
    res.checks += 2 * n * n
    worst = float(off.max())
    for i, j in zip(*np.nonzero(off > 1e-12)):  # row-major: in (a, b) order
        res.fail(f"pairing identity off at {indices[i]}, {indices[j]}: dev {off[i, j]:.2e}")
    # The harmonics of degree >= 1 stacked per order m, ascending from degree
    # max(1, |m|), so that one call brackets Y_a with every probe of an order.
    probes = {}
    for m in range(-l_max, l_max + 1):
        ys = [harmonics[l * (l + 1) + m] for l in range(max(1, abs(m)), l_max + 1)]
        if ys:
            probes[m] = GridFunction(values=np.stack([y.values for y in ys]), m=m,
                                     d_mu=np.stack([y.d_mu for y in ys]))
    # bracket_coefficient depends on m3 only through its parity: round each
    # distinct (parity, g) once per run.
    rounded = {}
    for a in indices:
        if a.l == 0:
            continue
        columns = {m: oracle_structure_coeff(a, stack, grid)
                   for m, stack in probes.items() if abs(a.m + m) <= l_max}
        for b in indices:
            m3 = a.m + b.m
            if b.l == 0 or abs(m3) > l_max:
                continue  # no l3 <= l_max carries order m3
            expansion = bracket_expand(a, b)
            for l3, got in columns[b.m][b.l - max(1, abs(b.m))].items():
                res.checks += 1
                g = expansion.get(l3)
                want = 0j if g is None else rounded.get((m3 % 2, g))
                if want is None:
                    want = rounded[m3 % 2, g] = bracket_coefficient(m3, g)
                dev = abs(got - want)
                worst = max(worst, dev)
                if dev > ORACLE_TOLERANCE:
                    res.fail(f"structure coefficient off at ({a},{b},l3={l3}): dev {dev:.2e}")
    res.max_deviation = worst
    return res


def theorem_suite(l_max: int = 12) -> SuiteResult:
    """Exact sweep of the criterion theorem's three statements."""
    suite_cap("theorem", l_max)
    res = SuiteResult("theorem", l_max)
    for block in (check_probe_positivity, check_order_one_positivity, check_zonal_nonpositivity):
        block(res, l_max)
    return res


def check_reference_table(res: SuiteResult, l1: int) -> None:
    """Critical ratios of zonal flow l1, on the reference's own grid, against the reference."""
    table = critical_table(l1, l2_max=6)
    for (l2, m2), ref in REFERENCE_RATIOS[l1].items():
        cell = table[l2, m2]
        res.checks += 1
        if cell["status"] != "ok":
            res.fail(f"l1={l1} cell ({l2},{m2}) unexpectedly {cell['status']}")
            continue
        ratio, direction = cell["ratio"], cell["direction"]
        rel = abs(ratio - ref) / abs(ref)
        res.max_deviation = max(res.max_deviation or 0.0, rel)
        if rel > REFERENCE_TOLERANCE:
            res.fail(f"l1={l1} cell ({l2},{m2}) off: {ratio:.6g} vs {ref}")
        if (direction == ">") != (ref > 0):
            res.fail(f"l1={l1} cell ({l2},{m2}) direction {direction} vs sign of {ref}")
        # Scaling the ratio by (1 +- eps) moves the rate into/out of the
        # conjugate-point region whichever the inequality direction, since
        # MC_hat(ratio*(1 +- eps)) = -+ MC*eps and the zonal MC is <= 0.
        inside = mc_coriolis(HarmonicIndex(l1, 0), HarmonicIndex(l2, m2), ratio * (1 + 1e-6))
        outside = mc_coriolis(HarmonicIndex(l1, 0), HarmonicIndex(l2, m2), ratio * (1 - 1e-6))
        res.checks += 1
        if not (inside.value_float > 0 > outside.value_float):
            res.fail(f"l1={l1} cell ({l2},{m2}) boundary sign pattern wrong")
    for (l2, m2) in REFERENCE_UNDEFINED[l1]:
        res.checks += 1
        if table[l2, m2]["status"] != "undefined":
            res.fail(f"l1={l1} cell ({l2},{m2}) should be undefined")


def table_suite() -> SuiteResult:
    """Critical-ratio tables against the frozen reference values."""
    res = SuiteResult("table", 7)
    for l1 in REFERENCE_RATIOS:
        check_reference_table(res, l1)
    return res


def run_suite(name: str, l_max: Optional[int] = None) -> SuiteResult:
    cap = suite_cap(name, l_max)
    if name == "wigner":
        return wigner_suite(cap)
    if name == "structure":
        return structure_suite(cap)
    if name == "oracle":
        return oracle_suite(cap)
    if name == "theorem":
        return theorem_suite(cap)
    return table_suite()
