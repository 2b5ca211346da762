"""Command-line front end: symbols, brackets, criteria, tables, verification.

Every computation is a pure function of its flags; output is JSON records
one per line (or CSV for tables), with exact values serialized losslessly
as sign/rational/pi-exponent terms and floats in shortest round-trip form.
Exit codes: 0 success, 1 verification failure, 2 usage error (a flag out of
its domain, or a finite flag whose result overflows a float), 141 stdout
closed early by its reader (128 + SIGPIPE), with no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional

from .criterion import (
    MCReport,
    MCValue,
    RHWave,
    critical_table,
    mc_coriolis,
    mc_flat,
    rhw_mc,
    rhw_threshold,
)
from .structure import HarmonicIndex, bracket_coefficient, bracket_expand
from .suites import SUITE_NAMES, run_suite, suite_cap
from .wigner import selection_rules_hold, threej_lm


def _fraction_str(value: Fraction) -> str:
    return f"{abs(value.numerator)}/{value.denominator}"


def _term_json(sign: int, num: int, den: int, root: bool, pi_exp: float) -> dict:
    """One exact term, ``exact.Term``: the float beside it is these terms correctly rounded."""
    return {"sign": sign, "radicand" if root else "rational": f"{num}/{den}", "pi_exp": pi_exp}


def _mc_value_json(value: MCValue) -> List[dict]:
    return [_term_json(*term) for term in value.terms()]


def _mc_record(request: dict, report: MCReport, verbose: bool) -> dict:
    value = report.value
    record = {
        "request": request,
        "status": "ok",
        "exact": _mc_value_json(value),
        "float": value.to_float(),
    }
    if verbose:
        record["summands"] = [
            {"l3": s.l3, "g_squared": _fraction_str(s.g_squared_over_pi),
             "pi_exp": -1, "weight": s.weight}
            for s in report.summands
        ]
        # ``delta_term`` is the whole rational constant of the value.
        record["delta_term"] = str(report.constant)
        record["coriolis_term"] = _mc_value_json(report.coriolis_term)
    return record


def _emit(record: dict, stream) -> None:
    """One compact JSON line; a non-finite float is refused, never written."""
    try:
        line = json.dumps(record, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise OverflowError("a float of the record is not finite") from None
    stream.write(line + "\n")


def _exact_decimal(text: str) -> Fraction:
    """argparse type: a finite float flag, read as the exact decimal it spells."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return Fraction(text)


def _harmonic(parser: argparse.ArgumentParser, l: int, m: int, what: str) -> HarmonicIndex:
    try:
        return HarmonicIndex(l, m)
    except ValueError as exc:
        parser.error(f"invalid {what}: {exc}")
        raise  # unreachable; parser.error exits with code 2


def cmd_wigner3j(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    value = threej_lm(*args.l, *args.m)
    record = {
        "request": {"l": args.l, "m": args.m},
        "status": "ok" if selection_rules_hold(*args.l, *args.m) else "zero-by-selection-rule",
        "exact": _term_json(value.sign, value.num, value.den, True, 0),
        "float": value.to_float(),
    }
    _emit(record, sys.stdout)
    return 0


def cmd_bracket(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    a = _harmonic(parser, *args.a, what="--a")
    b = _harmonic(parser, *args.b, what="--b")
    m3 = a.m + b.m
    expansion = bracket_expand(a, b)
    for l3, g in expansion.items():
        coeff = bracket_coefficient(m3, g)
        _emit({
            "request": {"a": [a.l, a.m], "b": [b.l, b.m]},
            "status": "ok",
            "l3": l3,
            "m3": m3,
            "phase": "+i" if m3 % 2 else "-i",  # the unit -i*(-1)^m3
            "g": _term_json(g.sign, g.num, g.den, True, -0.5),
            "coefficient": [coeff.real, coeff.imag],
        }, sys.stdout)
    if not expansion:
        _emit({
            "request": {"a": [a.l, a.m], "b": [b.l, b.m]},
            "status": "zero-by-selection-rule",
            "terms": [],
        }, sys.stdout)
    return 0


def cmd_mc(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    a = _harmonic(parser, *args.a, what="--a")
    b = _harmonic(parser, *args.b, what="--b")
    request = {"a": [a.l, a.m], "b": [b.l, b.m]}
    if args.rotation is not None:
        request["rotation"] = float(args.rotation)
        report = mc_coriolis(a, b, args.rotation)
    else:
        report = mc_flat(a, b)
    _emit(_mc_record(request, report, args.verbose), sys.stdout)
    return 0


def cmd_critical_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # The table is built before --out is opened, so a rejected flag creates no file.
    table = critical_table(args.l1, l2_max=args.l2_max)
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        parser.error(f"--out: cannot open {args.out!r} for writing: {exc.strerror}")
    try:
        if args.format == "csv":
            out.write("l2,m2,ratio,direction,status\n")
            for cell in table.values():
                # A float formats as its repr, the shortest round-trip form.
                out.write(f"{cell['l2']},{cell['m2']},{cell.get('ratio', '')},"
                          f"{cell.get('direction', '')},{cell['status']}\n")
        else:
            for cell in table.values():
                _emit(cell, out)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    names = [args.suite] if args.suite else list(SUITE_NAMES)
    # Every cap is checked before any suite runs, so a usage error writes no record.
    for name in names:
        try:
            suite_cap(name, args.lmax)
        except ValueError as exc:
            parser.error(f"--lmax {args.lmax} for suite {name}: {exc}")
    ok = True
    for name in names:
        result = run_suite(name, args.lmax)
        _emit(result.summary(), sys.stdout)
        if not result.ok:
            ok = False
            for failure in result.failures[:20]:
                sys.stderr.write(f"FAIL [{name}] {failure}\n")
    return 0 if ok else 1


def cmd_rhw(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    l1, m1 = args.wave
    wave_index = _harmonic(parser, l1, m1, what="--wave")
    if args.threshold is not None:
        _emit({
            "request": {"wave": [l1, m1], "threshold_order": args.threshold, "K": float(args.K)},
            "status": "ok",
            "float": rhw_threshold(l1, m1, args.threshold, K=args.K),
        }, sys.stdout)
        return 0
    probe = _harmonic(parser, *args.probe, what="--probe")
    report = rhw_mc(RHWave(A=tuple(args.A), C=args.C, index=wave_index, a=-args.K * args.C), probe)
    K, C = float(args.K), float(args.C)
    # The echoed rate is the binary-float product of the echoed flags.
    request = {
        "wave": [l1, m1], "A": [float(args.A[0]), float(args.A[1])], "C": C,
        "K": K, "rotation": -K * C, "probe": [probe.l, probe.m],
    }
    _emit(_mc_record(request, report, args.verbose), sys.stdout)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads -1e3, -inf and -nan as values like -1 and -1.5 where Python 3.11's
    argparse sees an option, so a non-finite flag is rejected as such; no
    option here looks like a number.  Subparsers share the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="misiolek",
        description="Exact conjugate-point criteria for ideal flow on the rotating 2-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner3j", help="exact Wigner 3j symbol")
    p.add_argument("--l", nargs=3, type=int, required=True, metavar=("L1", "L2", "L3"))
    p.add_argument("--m", nargs=3, type=int, required=True, metavar=("M1", "M2", "M3"))
    p.set_defaults(func=cmd_wigner3j)

    p = sub.add_parser("bracket", help="Poisson bracket expansion of two harmonics")
    p.add_argument("--a", nargs=2, type=int, required=True, metavar=("L", "M"))
    p.add_argument("--b", nargs=2, type=int, required=True, metavar=("L", "M"))
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("mc", help="Misiolek criterion, flat or rotating")
    p.add_argument("--a", nargs=2, type=int, required=True, metavar=("L1", "M1"))
    p.add_argument("--b", nargs=2, type=int, required=True, metavar=("L2", "M2"))
    p.add_argument("--rotation", type=_exact_decimal, default=None, help="Coriolis rotation rate")
    p.add_argument("--verbose", action="store_true", help="include per-degree summands")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("critical-table", help="critical rotation-rate table for a zonal flow")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2-max", type=int, default=6, dest="l2_max")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_critical_table)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=SUITE_NAMES, default=None)
    p.add_argument("--lmax", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rhw", help="Rossby-Haurwitz wave criterion and thresholds")
    p.add_argument("--wave", nargs=2, type=int, required=True, metavar=("L1", "M1"))
    p.add_argument("--A", nargs=2, type=_exact_decimal, default=(Fraction(0), Fraction(0)),
                   metavar=("RE", "IM"))
    p.add_argument("--C", type=_exact_decimal, default=Fraction(1), help="zonal coefficient")
    p.add_argument("--K", type=_exact_decimal, default=Fraction(0), help="rotation rate is a = -K*C")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--probe", nargs=2, type=int, metavar=("L2", "M2"))
    target.add_argument("--threshold", type=int, metavar="M",
                        help="print the |A|^2/C^2 positivity threshold for probe e_{M -M}")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_rhw)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact output of a high degree can run past Python's 4,300-digit guard on
    # int-to-str conversion; the guard stays on while the flags are parsed.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.func(parser, args)
        sys.stdout.flush()  # a closed pipe surfaces here at the latest, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`); what is still buffered goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OverflowError:
        # The exact value is fine but its float is not; the exception text can
        # carry a radicand thousands of digits long, so it is not echoed.
        parser.error(f"{args.command}: the result exceeds the float range")
    except ValueError as exc:
        # The library states every domain rule and raises ValueError outside
        # it.  This cannot mislabel a failed verify run: the suites raise
        # ValueError only for a degree cap, and cmd_verify checks every cap
        # before it runs any suite.
        parser.error(f"{args.command}: {exc}")
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
