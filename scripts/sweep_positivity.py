#!/usr/bin/env python3
"""Exact positivity sweep of the conjugate-point criterion.

Scans MC(e_{l1 m1}, e_{m -m}) for 1 < m1 <= l1 and 2 <= m <= m1 plus the
order-one family MC(e_{l1 1}, e_{l2 1}), checks the monotone proof chains,
and reports how the conjectured extension 2 <= m <= 2 m1 - 2 fares.
After the summary, one line on stderr gives the number of cached Racah sums
and the peak resident set size of the run.
"""

import argparse
import resource
import sys
import time

from misiolek.criterion import mc_flat, theorem_scan
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

    started = time.perf_counter()
    scan = theorem_scan(args.lmax)
    elapsed = time.perf_counter() - started
    print(f"lmax={args.lmax}: {scan.checked_pairs} wave-probe pairs, "
          f"{scan.checked_wave_pairs} order-one pairs, {scan.checked_zonal} zonal pairs, "
          f"{scan.checked_chains} chain ratios in {elapsed:.1f}s")
    if scan.failures:
        for failure in scan.failures:
            print(f"FALSIFIED: {failure}")
        print(_resources(), file=sys.stderr)
        return 1
    print("all asserted positivity and nonpositivity statements hold exactly")
    print(f"extended range 2 <= m <= 2 m1 - 2: {scan.extended_checked} extra pairs checked, "
          f"{len(scan.extended_nonpositive)} nonpositive")
    for tup in scan.extended_nonpositive:
        print(f"  extended-range nonpositive at (l1, m1, m) = {tup}")

    samples = [(args.lmax, args.lmax, 2), (args.lmax, 2, 2), (max(3, args.lmax - 1), 3, 3)]
    for l1, m1, m in samples[: args.show]:
        if not 2 <= m <= m1 <= l1:
            continue
        report = mc_flat(HarmonicIndex(l1, m1), HarmonicIndex(m, -m))
        print(f"MC(e_{{{l1} {m1}}}, e_{{{m} {-m}}}) = ({report.value.over_pi})/pi "
              f"= {report.value_float:.6g}")
        for s in report.summands:
            print(f"  l3={s.l3}: g^2 = {s.g_squared_over_pi}/pi, weight {s.weight}")
    print(_resources(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
