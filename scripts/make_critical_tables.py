#!/usr/bin/env python3
"""Regenerate the zonal critical-ratio tables and diff them against the
frozen reference values.

Writes one CSV per flow degree into --outdir (default: ./tables) through
`misiolek critical-table --out`, so each file is byte-equal to that
command's output.  Each degree with a reference is then checked by the
`verify --suite table` block for that degree, on the reference's own grid
whatever --l2-max is, and its worst relative deviation is printed.
"""

import argparse
import pathlib
import sys

from misiolek.cli import main as cli_main
from misiolek.checks import SuiteResult
from misiolek.reference import REFERENCE_RATIOS
from misiolek.suites import check_reference_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[3, 5, 7],
                        help="zonal flow degrees l1 (default: 3 5 7)")
    parser.add_argument("--l2-max", type=int, default=6)
    parser.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("tables"))
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for l1 in args.degrees:
        path = args.outdir / f"critical_ratios_l1_{l1}.csv"
        cli_main(["critical-table", "--l1", str(l1), "--l2-max", str(args.l2_max),
                  "--out", str(path)])
        if l1 not in REFERENCE_RATIOS:
            print(f"l1={l1}: -> {path} (no reference)")
            continue
        result = SuiteResult("table", l1)
        check_reference_table(result, l1)
        verdict = "ok" if result.ok else "MISMATCH"
        if not result.ok:
            status = 1
        print(f"l1={l1}: worst relative deviation {result.max_deviation:.2e} ({verdict}) -> {path}")
        for message in result.failures:
            print(f"  {message}")
    return status


if __name__ == "__main__":
    sys.exit(main())
