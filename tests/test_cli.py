"""Command-line surface: records, formats, exit codes, determinism."""

import argparse
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import misiolek.cli
from misiolek.cli import main
from misiolek.criterion import RHWave, critical_table, mc_flat, rhw_mc, rhw_threshold
from misiolek.exact import SignedSqrtRational
from misiolek.structure import HarmonicIndex
from misiolek.suites import SUITE_NAMES, run_suite, structure_suite, suite_cap, wigner_suite
from misiolek.wigner import selection_rules_hold, threej_lm

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_expect_usage_error(*argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    return excinfo.value.code


def usage_error_line(capsys, *argv):
    """The one error line of a usage error, after checking exit 2 and empty stdout."""
    assert run_cli_expect_usage_error(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in captured.err
    return errors[0]


def library_error(call):
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


def test_wigner3j_record(capsys):
    code, out = run_cli(capsys, "wigner3j", "--l", "2", "2", "0", "--m", "1", "-1", "0")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "ok"
    assert record["exact"] == {"sign": -1, "radicand": "1/5", "pi_exp": 0}
    assert record["float"] == -1 / math.sqrt(5)


def test_wigner3j_selection_rule_status(capsys):
    code, out = run_cli(capsys, "wigner3j", "--l", "3", "1", "1", "--m", "0", "0", "0")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "zero-by-selection-rule"
    assert record["exact"]["sign"] == 0


def test_wigner3j_usage_error_exit_2():
    assert run_cli_expect_usage_error("wigner3j", "--l", "2", "x", "0", "--m", "0", "0", "0") == 2


def test_wigner3j_status_is_the_selection_rule_predicate(monkeypatch):
    # Every tuple with degrees <= 4 and orders in -5..5, through the subcommand
    # with the records collected unserialized.
    records = []
    monkeypatch.setattr(misiolek.cli, "_emit", lambda record, stream: records.append(record))
    parser = misiolek.cli.build_parser()
    tuples = list(itertools.product(range(5), range(5), range(5), *[range(-5, 6)] * 3))
    for indices in tuples:
        args = argparse.Namespace(l=list(indices[:3]), m=list(indices[3:]))
        assert misiolek.cli.cmd_wigner3j(parser, args) == 0
    assert len(records) == len(tuples) == 166_375
    for indices, record in zip(tuples, records):
        expected = "ok" if selection_rules_hold(*indices) else "zero-by-selection-rule"
        assert record["status"] == expected, indices


def test_exact_output_beyond_the_int_to_str_digit_guard(capsys, monkeypatch):
    # A degree-10000 symbol has such a radicand; stubbed here to keep it fast.
    radicand = Fraction(10 ** 5000 + 1, 10 ** 5000)
    monkeypatch.setattr(misiolek.cli, "threej_lm", lambda *args: SignedSqrtRational.of(1, radicand))
    digits = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "wigner3j", "--l", "10000", "10000", "10000", "--m", "1", "-1", "0")
    assert code == 0
    numerator, denominator = json.loads(out)["exact"]["radicand"].split("/")
    assert len(numerator) == 5001 and len(denominator) == 5001
    assert sys.get_int_max_str_digits() == digits


def test_mc_flat_record(capsys):
    code, out = run_cli(capsys, "mc", "--a", "3", "2", "--b", "2", "-2")
    assert code == 0
    record = json.loads(out)
    assert record["float"] > 0
    assert record["exact"] == [{"sign": 1, "rational": "10/1", "pi_exp": -1}]


def test_mc_zero_record(capsys):
    code, out = run_cli(capsys, "mc", "--a", "4", "1", "--b", "1", "0")
    assert code == 0
    record = json.loads(out)
    assert record["exact"] == [] and record["float"] == 0.0


def test_mc_rotation_record(capsys):
    code, out = run_cli(capsys, "mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "5.0", "--verbose")
    assert code == 0
    record = json.loads(out)
    assert record["float"] > 0  # 5.0 exceeds the 2.983 critical rate
    assert {s["l3"] for s in record["summands"]} == {2, 4}


def _exact_terms(terms):
    """(rational, over_pi, root) of a list of exact terms; root is (sign, radicand) or None."""
    rational, over_pi, root = Fraction(0), Fraction(0), None
    for term in terms:
        if term["pi_exp"] == 0:
            rational += term["sign"] * Fraction(term["rational"])
        elif term["pi_exp"] == -1:
            over_pi += term["sign"] * Fraction(term["rational"])
        else:
            assert term["pi_exp"] == -0.5 and root is None
            root = (term["sign"], Fraction(term["radicand"]))
    return rational, over_pi, root


@pytest.mark.parametrize("argv", [
    ("mc", "--a", "3", "2", "--b", "2", "-2", "--verbose"),
    ("mc", "--a", "4", "3", "--b", "4", "3", "--verbose"),
    ("mc", "--a", "4", "3", "--b", "4", "3", "--rotation", "2.5", "--verbose"),
    ("mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "5.0", "--verbose"),
    ("mc", "--a", "5", "0", "--b", "3", "-2", "--rotation", "-0.3", "--verbose"),
    ("rhw", "--wave", "3", "2", "--A", "1", "0", "--C", "1", "--K", "0", "--probe", "2", "-2", "--verbose"),
    ("rhw", "--wave", "3", "2", "--A", "1.5", "-0.5", "--C", "0.75", "--K", "2", "--probe", "3", "2",
     "--verbose"),
    ("rhw", "--wave", "4", "-1", "--A", "0.3", "2", "--C", "1.25", "--K", "0.5", "--probe", "5", "3",
     "--verbose"),
    ("rhw", "--wave", "3", "2", "--A", "0", "0", "--C", "1", "--probe", "4", "2", "--verbose"),
])
def test_verbose_breakdown_adds_up_to_the_exact_value(capsys, argv):
    # Summands over pi, plus delta_term, plus the Coriolis term, is the value, exactly;
    # for a wave, delta_term holds C^2 m2^2 (2 - l2(l2+1)) (-16 in the first rhw case).
    code, out = run_cli(capsys, *argv)
    record = json.loads(out)
    assert code == 0
    over_pi = sum((Fraction(s["g_squared"]) * s["weight"] for s in record["summands"]), Fraction(0))
    rational, coriolis_over_pi, root = _exact_terms(record["coriolis_term"])
    assert coriolis_over_pi == 0
    want = (Fraction(record["delta_term"]) + rational, over_pi, root)
    assert _exact_terms(record["exact"]) == want


def test_mc_order_out_of_range_is_usage_error():
    assert run_cli_expect_usage_error("mc", "--a", "3", "4", "--b", "2", "1") == 2


def test_rhw_special_case_record(capsys):
    code, out = run_cli(capsys, "rhw", "--A", "1", "0", "--C", "1", "--wave", "3", "2",
                        "--probe", "1", "1", "--K", "2")
    assert code == 0
    record = json.loads(out)
    assert record["float"] == 2.0
    assert record["exact"] == [{"sign": 1, "rational": "2/1", "pi_exp": 0}]


def test_rhw_threshold_record(capsys):
    code, out = run_cli(capsys, "rhw", "--threshold", "2", "--wave", "3", "2", "--K", "0")
    assert code == 0
    record = json.loads(out)
    assert record["float"] == pytest.approx(16 * math.pi / 10, rel=1e-12)


def test_rhw_decimal_flags_are_exact(capsys):
    # K C^2 with C = 1/10, not with the binary float nearest 0.1.
    code, out = run_cli(capsys, "rhw", "--A", "1", "0", "--C", "0.1", "--K", "2", "--wave", "3", "2",
                        "--probe", "1", "1")
    record = json.loads(out)
    assert code == 0
    assert record["exact"] == [{"sign": 1, "rational": "1/50", "pi_exp": 0}]
    assert record["float"] == 0.02


def test_mc_decimal_rotation_is_exact(capsys):
    # The coriolis slope of this pair is sqrt(36/7)/sqrt(pi); at rate 1/10 it is sqrt(9/175)/sqrt(pi).
    code, out = run_cli(capsys, "mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "0.1")
    record = json.loads(out)
    assert code == 0 and record["request"]["rotation"] == 0.1
    assert record["exact"] == [{"sign": -1, "rational": "12/1", "pi_exp": -1},
                               {"sign": 1, "radicand": "9/175", "pi_exp": -0.5}]
    assert record["float"] == pytest.approx(-12 / math.pi + math.sqrt(9 / 175 / math.pi), rel=1e-15)


@pytest.mark.parametrize("argv,want", [
    # -30/pi; the float of 30 over the float of pi was -9.549296585513721.
    (("mc", "--a", "1", "0", "--b", "3", "-2"), -9.54929658551372),
    # Near the critical rate the value nearly cancels; three rounded parts gave 0.0.
    (("mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "2.9854106607209228"), -4.2390507108542164e-16),
    # sqrt(36/7 10**616 / pi) - 12/pi is a double, though its radicand's root is not.
    (("mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "1e308"), 1.2794617117375385e308),
])
def test_mc_float_is_the_printed_terms_correctly_rounded(capsys, argv, want):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["float"] == want
    assert out.rstrip("}\n").endswith(f'"float":{want!r}')


def test_rhw_threshold_decimal_K(capsys):
    # 4 (2*3 - 2 - K) / MC(e_{3 2}, e_{2 -2}) with K = 1/10 and MC = 10/pi: 39 pi / 25.
    code, out = run_cli(capsys, "rhw", "--threshold", "2", "--wave", "3", "2", "--K", "0.1")
    record = json.loads(out)
    assert code == 0 and record["request"]["K"] == 0.1
    assert record["float"] == pytest.approx(39 * math.pi / 25, rel=1e-15)


def test_decimal_flags_are_echoed_as_floats(capsys):
    code, out = run_cli(capsys, "rhw", "--A", "0.3", "-0.7", "--C", "1.1", "--K", "0.3", "--wave", "3", "2",
                        "--probe", "2", "1")
    assert code == 0
    assert json.loads(out)["request"] == {"wave": [3, 2], "A": [0.3, -0.7], "C": 1.1, "K": 0.3,
                                          "rotation": -0.3 * 1.1, "probe": [2, 1]}


def test_rhw_zonal_wave_usage_error():
    assert run_cli_expect_usage_error("rhw", "--wave", "3", "0", "--probe", "2", "1") == 2


def test_rhw_zero_amplitude_record(capsys):
    code, out = run_cli(capsys, "rhw", "--A", "0", "0", "--C", "1", "--wave", "3", "2",
                        "--probe", "4", "2")
    record = json.loads(out)
    assert code == 0 and record["float"] == -72.0


@pytest.mark.parametrize("argv, call", [
    (("wigner3j", "--l", "-1", "2", "3", "--m", "0", "0", "0"), lambda: threej_lm(-1, 2, 3, 0, 0, 0)),
    (("mc", "--a", "0", "0", "--b", "2", "1"), lambda: mc_flat(HarmonicIndex(0, 0), HarmonicIndex(2, 1))),
    (("rhw", "--wave", "3", "0", "--probe", "2", "1"),
     lambda: rhw_mc(RHWave(A=0, C=1, index=HarmonicIndex(3, 0)), HarmonicIndex(2, 1))),
    (("rhw", "--wave", "3", "0", "--threshold", "2"), lambda: rhw_threshold(3, 0, 2)),
    (("rhw", "--wave", "0", "0", "--probe", "1", "1"),
     lambda: RHWave(A=0, C=1, index=HarmonicIndex(0, 0))),
    (("rhw", "--wave", "3", "2", "--probe", "0", "0"),
     lambda: rhw_mc(RHWave(A=0, C=1, index=HarmonicIndex(3, 2)), HarmonicIndex(0, 0))),
], ids=["negative-degree", "degree-zero", "zonal-wave-probe", "zonal-wave-threshold", "no-phase-speed",
        "degree-zero-probe"])
def test_library_domain_error_is_usage_error(capsys, argv, call):
    # The CLI states none of these rules; the library's own text reaches stderr.
    assert usage_error_line(capsys, *argv).endswith(f"error: {argv[0]}: {library_error(call)}")


@pytest.mark.parametrize("argv, message", [
    (("rhw", "--wave", "3", "2", "--threshold", "2", "--probe", "1", "1"),
     "argument --probe: not allowed with argument --threshold"),
    (("rhw", "--wave", "3", "2"), "one of the arguments --probe --threshold is required"),
], ids=["both", "neither"])
def test_rhw_takes_exactly_one_of_probe_and_threshold(capsys, argv, message):
    assert usage_error_line(capsys, *argv).endswith(message)


def test_any_value_error_from_a_subcommand_is_one_usage_error(capsys, monkeypatch):
    def reject(a, b):
        raise ValueError("outside the stated domain")

    monkeypatch.setattr(misiolek.cli, "bracket_expand", reject)
    line = usage_error_line(capsys, "bracket", "--a", "2", "1", "--b", "3", "-1")
    assert line.endswith("error: bracket: outside the stated domain")


def test_negative_float_flag_in_exponent_form(capsys):
    code, spaced = run_cli(capsys, "mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "-1e3")
    assert code == 0
    assert run_cli(capsys, "mc", "--a", "3", "0", "--b", "2", "1", "--rotation=-1e3") == (0, spaced)
    assert json.loads(spaced)["request"]["rotation"] == -1000.0
    code, out = run_cli(capsys, "rhw", "--wave", "3", "2", "--probe", "3", "2", "--A", "-1e-3", "0")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "ok" and record["request"]["A"] == [-0.001, 0.0]


@pytest.mark.parametrize("argv, flag", [
    (("rhw", "--threshold", "2", "--wave", "3", "2", "--K", "nan"), "--K"),
    (("rhw", "--threshold", "2", "--wave", "3", "2", "--K", "inf"), "--K"),
    (("mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "nan"), "--rotation"),
    (("rhw", "--wave", "3", "2", "--probe", "1", "1", "--C", "inf"), "--C"),
    (("rhw", "--wave", "3", "2", "--probe", "1", "1", "--A", "nan", "0"), "--A"),
    # Negative non-finite values are read as values too, not as options.
    (("mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "-inf"), "--rotation"),
    (("rhw", "--wave", "3", "2", "--probe", "1", "1", "--K", "-nan"), "--K"),
    (("rhw", "--threshold", "2", "--wave", "3", "2", "--K", "-Infinity"), "--K"),
    (("rhw", "--wave", "3", "2", "--probe", "1", "1", "--A", "0", "-NaN"), "--A"),
    (("rhw", "--wave", "3", "2", "--probe", "1", "1", "--C", "-INF"), "--C"),
])
def test_non_finite_numeric_flag_is_usage_error(capsys, argv, flag):
    assert run_cli_expect_usage_error(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}: must be finite" in errors[0]


@pytest.mark.parametrize("argv", [
    # The value is about 1.28 times the rate, so it leaves double range above 1.4e308.
    ("mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "1.5e308"),
    ("rhw", "--A", "1e200", "0", "--wave", "3", "2", "--probe", "3", "2"),
    # The threshold 4 pi (4 - K) / 10 leaves double range for K > 1.43e308.
    ("rhw", "--threshold", "2", "--wave", "3", "2", "--K", "1.5e308"),
    # The echoed rotation -K*C overflows, though the criterion's float does not.
    ("rhw", "--wave", "3", "2", "--probe", "2", "0", "--K", "1e300", "--C", "1e300", "--A", "1", "0"),
    # Each component's float is finite, but their sum is not.
    ("rhw", "--wave", "3", "2", "--probe", "5", "2", "--C", "1.2e153", "--K", "0", "--A", "3.7e152", "0"),
])
def test_finite_flag_with_overflowing_result_is_usage_error(capsys, argv):
    # The flags are finite, but the float of the result is not.
    assert run_cli_expect_usage_error(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith("the result exceeds the float range")
    assert len(captured.err) < 300  # no radicand echoed


def test_large_finite_rotation_with_finite_result_is_a_record(capsys):
    code, out = run_cli(capsys, "mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "1e300")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "ok" and math.isfinite(record["float"])


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "table"),
    ("critical-table", "--l1", "3", "--l2-max", "60"),
], ids=["verify", "critical-table"])
def test_closed_stdout_exits_141_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes a byte
    try:
        done = subprocess.run([sys.executable, "-m", "misiolek.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    finally:
        os.close(write_end)
    # 141, never 1: a closed pipe is not a failed verification.
    assert (done.returncode, done.stderr) == (141, "")


def test_critical_table_csv(capsys, tmp_path):
    code, out = run_cli(capsys, "critical-table", "--l1", "3", "--l2-max", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 25
    defined = [r for r in rows if r["status"] == "ok"]
    assert len(defined) == 14
    cell = next(r for r in rows if r["l2"] == "2" and r["m2"] == "1")
    assert float(cell["ratio"]) == pytest.approx(2.983, rel=5e-3)
    assert cell["direction"] == ">"
    # round-trip: parsing the emitted floats reproduces them bit-exactly
    for row in defined:
        assert repr(float(row["ratio"])) == row["ratio"]


def test_critical_table_even_degree_all_undefined(capsys):
    code, out = run_cli(capsys, "critical-table", "--l1", "4", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    assert {r["status"] for r in rows} == {"undefined", "not-applicable"}


def test_critical_table_json_and_file_output(capsys, tmp_path):
    target = tmp_path / "table.json"
    code, _ = run_cli(capsys, "critical-table", "--l1", "7", "--l2-max", "6",
                      "--format", "json", "--out", str(target))
    assert code == 0
    records = [json.loads(line) for line in target.read_text().splitlines()]
    assert len(records) == 36
    cell = next(r for r in records if (r["l2"], r["m2"]) == (6, 6))
    assert cell["ratio"] == pytest.approx(-569.9, rel=5e-3)
    assert cell["direction"] == "<"
    undefined = next(r for r in records if (r["l2"], r["m2"]) == (2, 1))
    assert undefined["status"] == "undefined" and "ratio" not in undefined


def test_critical_table_prints_the_library_records(capsys):
    for l1 in range(1, 8):
        cells = list(critical_table(l1, l2_max=6).values())
        code, out = run_cli(capsys, "critical-table", "--l1", str(l1), "--l2-max", "6", "--format", "json")
        assert code == 0
        assert out.splitlines() == [json.dumps(cell, separators=(",", ":")) for cell in cells]
        code, out = run_cli(capsys, "critical-table", "--l1", str(l1), "--l2-max", "6", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["l2"], r["m2"], r["status"], r["ratio"], r["direction"]) for r in rows] == [
            (str(c["l2"]), str(c["m2"]), c["status"], repr(c["ratio"]) if "ratio" in c else "",
             c.get("direction", "")) for c in cells]


@pytest.mark.parametrize("l2_max", ["0", "-2"])
def test_critical_table_empty_grid_is_usage_error(capsys, tmp_path, l2_max):
    target = tmp_path / "table.csv"
    assert run_cli_expect_usage_error("critical-table", "--l1", "3", "--l2-max", l2_max,
                                      "--out", str(target)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "l2_max >= 1" in errors[0]
    assert not target.exists()  # rejected before --out is opened


def test_critical_table_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "table.csv"
    assert run_cli_expect_usage_error("critical-table", "--l1", "3", "--out", str(target)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--out" in errors[0] and "Traceback" not in captured.err


def test_identical_invocations_byte_identical(capsys):
    _, first = run_cli(capsys, "critical-table", "--l1", "5", "--format", "csv")
    _, second = run_cli(capsys, "critical-table", "--l1", "5", "--format", "csv")
    assert first == second
    _, third = run_cli(capsys, "mc", "--a", "5", "3", "--b", "4", "-2", "--verbose")
    _, fourth = run_cli(capsys, "mc", "--a", "5", "3", "--b", "4", "-2", "--verbose")
    assert third == fourth


def test_bracket_records(capsys):
    code, out = run_cli(capsys, "bracket", "--a", "2", "1", "--b", "3", "-1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["l3"] for r in records] == [2, 4]
    for record in records:
        assert record["m3"] == 0 and record["phase"] in ("-i", "+i")


def test_verify_theorem_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "theorem", "--lmax", "6")
    assert code == 0
    summary = json.loads(out)
    assert summary["suite"] == "theorem" and summary["failures"] == 0


def test_verify_table_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "table")
    assert code == 0
    summary = json.loads(out)
    assert summary["failures"] == 0
    assert summary["max_deviation"] < 5e-3


def test_verify_oracle_suite_small(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "oracle", "--lmax", "4")
    assert code == 0
    summary = json.loads(out)
    assert summary["failures"] == 0
    assert summary["max_deviation"] < 1e-9


def test_verify_cap_outside_a_suite_domain_is_usage_error(capsys):
    assert run_cli_expect_usage_error("verify", "--suite", "theorem", "--lmax", "2") == 2
    assert run_cli_expect_usage_error("verify", "--suite", "oracle", "--lmax", "-1") == 2
    assert run_cli_expect_usage_error("verify", "--suite", "wigner", "--lmax", "-1") == 2
    assert run_cli_expect_usage_error("verify", "--suite", "structure", "--lmax", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--lmax 2 for suite theorem: requires l_max >= 3" in captured.err
    assert "--lmax -1 for suite oracle: l_max must be nonnegative" in captured.err
    assert "--lmax -1 for suite wigner: l_max must be nonnegative" in captured.err
    assert "--lmax -1 for suite structure: l_max must be nonnegative" in captured.err


def test_verify_all_suites_check_every_cap_before_running_any(capsys, monkeypatch):
    # wigner, structure and oracle accept --lmax 2 and theorem does not: the
    # usage error comes before any suite runs, so stdout stays empty.
    def no_run(*args):
        raise AssertionError(f"run_suite{args} called before every cap was checked")

    monkeypatch.setattr(misiolek.cli, "run_suite", no_run)
    assert run_cli_expect_usage_error("verify", "--lmax", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--lmax 2 for suite theorem: requires l_max >= 3" in captured.err


def test_suite_cap_is_the_rule_run_suite_applies():
    assert [suite_cap(name) for name in SUITE_NAMES] == [12, 10, 6, 12, None]
    assert suite_cap("table", -5) is None  # fixed tables: the cap is ignored
    assert suite_cap("theorem", 3) == 3 and suite_cap("wigner", 0) == 0
    for name, l_max in (("wigner", -1), ("structure", -1), ("oracle", -1), ("theorem", 2), ("nope", 4)):
        with pytest.raises(ValueError):
            suite_cap(name, l_max)
        with pytest.raises(ValueError):
            run_suite(name, l_max)
    with pytest.raises(ValueError, match="l_max must be nonnegative"):
        wigner_suite(-1)
    with pytest.raises(ValueError, match="l_max must be nonnegative"):
        structure_suite(-1)
