#!/usr/bin/env python3
"""Amplitude thresholds for conjugate points along traveling waves.

For each wave index (l1, m1) and probe order m, prints the minimal
|A|^2/C^2 making the criterion positive as the rotation coupling K grows
(rate a = -K*C).  The threshold hits zero at K = m(m+1) - 2, where rotation
alone stabilizes the wave.
"""

import argparse
import sys

from misiolek.criterion import rhw_threshold


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--waves", nargs="+", default=["3:2:2", "5:3:2", "5:3:3", "7:5:4"],
                        help="wave specs l1:m1:m (probe order m with 2 <= m <= m1)")
    parser.add_argument("--kmax", type=float, default=12.0)
    parser.add_argument("--steps", type=int, default=7)
    args = parser.parse_args()
    if args.steps < 2:
        parser.error("--steps must be at least 2: the K grid runs from 0 to --kmax")

    # Every row is computed before the header is printed, so a bad spec or
    # flag is a usage error with nothing on stdout.
    ks = [args.kmax * i / (args.steps - 1) for i in range(args.steps)]
    rows = []
    for spec in args.waves:
        try:
            l1, m1, m = (int(part) for part in spec.split(":"))
        except ValueError:
            parser.error(f"bad wave spec {spec!r}, expected l1:m1:m")
        try:
            thresholds = [rhw_threshold(l1, m1, m, K=k) for k in ks]
        except (ValueError, OverflowError) as exc:
            parser.error(f"wave spec {spec!r}: {exc}")
        cells = " ".join(f"{max(threshold, 0.0):.4g}" for threshold in thresholds)
        rows.append(f"{l1:2d} {m1:2d} {m:2d} {cells}")
    print("l1 m1 m " + " ".join(f"K={k:g}" for k in ks))
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
