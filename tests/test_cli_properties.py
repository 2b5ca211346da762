"""Property test over every CLI subcommand: a record or a usage error, nothing else.

Each invocation runs ``cli.main`` in process.  It either exits 0 and prints
records whose float equals the value of their exact terms, or exits 2 with
one usage line, one error line and empty stdout.  It never exits 1 and never
raises.  Every generated float is finite, so the parser takes each as a
value: an error line that reads "expected one argument" would be a valid
flag refused by the parser rather than a domain rule of the library.
"""

import contextlib
import csv
import io
import json
import math
import sys
from decimal import Decimal

import mpmath
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from misiolek.cli import main

#: Examples per run, over all subcommands together.
EXAMPLES = 300

degrees = st.integers(-1, 12)
orders = st.integers(-14, 14)
# (l, m) pairs whose order may exceed the degree, mostly by a little.
harmonics = degrees.flatmap(lambda l: st.tuples(st.just(l), st.integers(-abs(l) - 2, abs(l) + 2)))
# Finite floats, huge and subnormal ones included, next to moderate ones.
floats = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


def _flag(x: float, exact_decimal: bool) -> str:
    """A double written as a flag: its exact decimal expansion, or its shortest
    repr, which may be in exponent form (-1e-05); both parse back exactly."""
    return format(Decimal(x), "f") if exact_decimal else repr(x)


def flags(values=floats):
    return st.builds(_flag, values, st.booleans())


def _ints(*values: int) -> list:
    return [str(v) for v in values]


wigner3j = st.builds(lambda l, m: ["wigner3j", "--l", *_ints(*l), "--m", *_ints(*m)],
                     st.tuples(degrees, degrees, degrees), st.tuples(orders, orders, orders))
bracket = st.builds(lambda a, b: ["bracket", "--a", *_ints(*a), "--b", *_ints(*b)], harmonics, harmonics)
mc = st.builds(lambda a, b, verbose: ["mc", "--a", *_ints(*a), "--b", *_ints(*b)] + verbose,
               harmonics, harmonics, st.sampled_from([[], ["--verbose"]]))
mc_rotating = st.builds(lambda argv, rotation: argv + ["--rotation", rotation], mc, flags())
critical_table = st.builds(
    lambda l1, l2_max, fmt: ["critical-table", "--l1", str(l1), "--l2-max", str(l2_max), "--format", fmt],
    degrees, st.integers(-2, 6), st.sampled_from(["csv", "json"]))
rhw_probe = st.builds(
    lambda wave, amp, c, k, probe: ["rhw", "--wave", *_ints(*wave), "--A", *amp,
                                    "--C", c, "--K", k, "--probe", *_ints(*probe)],
    harmonics, st.tuples(flags(), flags()), flags(), flags(), harmonics)
rhw_threshold = harmonics.flatmap(lambda wave: st.builds(
    lambda m, k: ["rhw", "--wave", *_ints(*wave), "--threshold", str(m), "--K", k],
    st.integers(-1, abs(wave[1]) + 1), flags(st.one_of(floats, st.floats(0, 100)))))

invocations = st.one_of(wigner3j, bracket, mc, mc_rotating, critical_table, rhw_probe, rhw_threshold)


def _exact_value(terms: list):
    """(value, scale) of exact JSON terms at 50 digits: their sum and the sum of their sizes."""
    value = scale = mpmath.mpf(0)
    for term in terms:
        p, q = (mpmath.mpf(int(part)) for part in (term.get("rational") or term["radicand"]).split("/"))
        size = p / q if "rational" in term else mpmath.sqrt(p / q)
        size *= mpmath.pi ** mpmath.mpf(term["pi_exp"])
        value += term["sign"] * size
        scale += size
    return value, scale


def _assert_float_matches(got: float, terms: list) -> None:
    # Relative 1e-12, or absolutely within the smallest normal double, below
    # which a double keeps no relative precision.
    value, scale = _exact_value(terms)
    assert math.isfinite(got)
    assert abs(got - value) <= 1e-12 * scale + sys.float_info.min, (got, terms)


def _check_records(argv: list, out: str) -> None:
    command = argv[0]
    if command == "critical-table":
        l2_max = int(argv[argv.index("--l2-max") + 1])
        if argv[-1] == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
        else:
            rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == l2_max * l2_max > 0
        assert all(math.isfinite(float(row["ratio"])) for row in rows if row["status"] == "ok")
        return
    records = [json.loads(line) for line in out.splitlines()]
    assert records
    for record in records:
        if command == "wigner3j":
            _assert_float_matches(record["float"], [record["exact"]])
        elif command == "bracket":
            if record["status"] == "zero-by-selection-rule":
                assert record["terms"] == [] and len(records) == 1
                continue
            re, im = record["coefficient"]
            assert re == 0.0
            _assert_float_matches(im if record["phase"] == "+i" else -im, [record["g"]])
        elif "threshold_order" in record["request"]:
            assert math.isfinite(record["float"])
        else:
            _assert_float_matches(record["float"], record["exact"])


@seed(20240216)
@settings(max_examples=EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations)
def test_every_invocation_is_a_record_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        _check_records(argv, out.getvalue())
    else:
        assert code == 2, (argv, err.getvalue())
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert lines[0].startswith("usage: ") and "Traceback" not in err.getvalue(), argv
        errors = [line for line in lines if "error:" in line]
        assert len(errors) == 1, argv
        assert not any(text in errors[0] for text in ("expected one argument", "expected 2 arguments")), argv

