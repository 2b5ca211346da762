#!/usr/bin/env python3
"""Exact positivity sweep of the conjugate-point criterion.

Runs the theorem's three check blocks: MC(e_{l1 m1}, e_{m -m}) > 0 for
1 < m1 <= l1 and 2 <= m <= m1 with its monotone proof chains, the order-one
family MC(e_{l1 1}, e_{l2 1}) > 0, and the nonpositivity of every zonal
criterion.  Then reports how the conjectured extension 2 <= m <= 2 m1 - 2
fares, without asserting it.  After the summary, one line on stderr gives
the number of cached Racah sums and the peak resident set size of the run.
"""

import argparse
import resource
import sys
import time

from misiolek.checks import SuiteResult
from misiolek.criterion import (
    check_order_one_positivity,
    check_probe_positivity,
    check_zonal_nonpositivity,
    mc_flat,
)
from misiolek.structure import HarmonicIndex
from misiolek.wigner import _racah


def _resources() -> str:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return f"racah cache entries: {_racah.cache_info().currsize}, peak RSS: {peak_kib / 1024:.1f} MB"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lmax", type=int, default=16)
    parser.add_argument("--show", type=int, default=3,
                        help="print the summand decomposition of this many sample pairs")
    args = parser.parse_args()
    if args.lmax < 3:
        parser.error("--lmax must be >= 3")

    started = time.perf_counter()
    probe, order_one, zonal = (SuiteResult("theorem", args.lmax) for _ in range(3))
    check_probe_positivity(probe, args.lmax)
    check_order_one_positivity(order_one, args.lmax)
    check_zonal_nonpositivity(zonal, args.lmax)
    elapsed = time.perf_counter() - started
    print(f"lmax={args.lmax}: {probe.checks} wave-probe pair and chain-ratio checks, "
          f"{order_one.checks} order-one pairs, {zonal.checks} zonal pairs in {elapsed:.1f}s")
    failures = probe.failures + order_one.failures + zonal.failures
    if failures:
        for failure in failures:
            print(f"FALSIFIED: {failure}")
        print(_resources(), file=sys.stderr)
        return 1
    print("all asserted positivity and nonpositivity statements hold exactly")

    extended = [(l1, m1, m) for l1 in range(2, args.lmax + 1) for m1 in range(2, l1 + 1)
                for m in range(m1 + 1, 2 * m1 - 1)]
    nonpositive = [(l1, m1, m) for l1, m1, m in extended
                   if mc_flat(HarmonicIndex(l1, m1), HarmonicIndex(m, -m)).flat_over_pi <= 0]
    print(f"extended range 2 <= m <= 2 m1 - 2: {len(extended)} extra pairs checked, "
          f"{len(nonpositive)} nonpositive")
    for tup in nonpositive:
        print(f"  extended-range nonpositive at (l1, m1, m) = {tup}")

    samples = [(args.lmax, args.lmax, 2), (args.lmax, 2, 2), (max(3, args.lmax - 1), 3, 3)]
    for l1, m1, m in samples[: args.show]:
        if not 2 <= m <= m1 <= l1:
            continue
        report = mc_flat(HarmonicIndex(l1, m1), HarmonicIndex(m, -m))
        print(f"MC(e_{{{l1} {m1}}}, e_{{{m} {-m}}}) = ({report.value.over_pi})/pi "
              f"= {report.value.to_float():.6g}")
        for s in report.summands:
            print(f"  l3={s.l3}: g^2 = {s.g_squared_over_pi}/pi, weight {s.weight}")
    print(_resources(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
