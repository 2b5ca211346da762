"""Runnable scripts, run as a user would: a fresh process in a scratch directory."""

import ast
import importlib.util
import io
import os
import pathlib
import subprocess
import sys

import pytest

from misiolek.cli import main
from misiolek.suites import SUITE_NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_make_critical_tables_writes_the_cli_tables(tmp_path, capsys):
    done = run_script("make_critical_tables.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for l1 in (3, 5, 7):
        assert f"l1={l1}: worst relative deviation" in done.stdout
        assert main(["critical-table", "--l1", str(l1), "--format", "csv"]) == 0
        expected = capsys.readouterr().out
        assert (tmp_path / "tables" / f"critical_ratios_l1_{l1}.csv").read_text() == expected
    assert done.stdout.count("(ok)") == 3


def test_make_critical_tables_small_grid_still_checks_references(tmp_path):
    # The reference cells reach l2 = 6; the check reads its own grid, not the CSV's.
    done = run_script("make_critical_tables.py", "--l2-max", "4", "--outdir", "small", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    verdicts = [line for line in done.stdout.splitlines() if "worst relative deviation" in line]
    assert [line.split(":")[0] for line in verdicts] == ["l1=3", "l1=5", "l1=7"]
    assert all("(ok)" in line for line in verdicts)
    header, *rows = (tmp_path / "small" / "critical_ratios_l1_3.csv").read_text().splitlines()
    assert header == "l2,m2,ratio,direction,status" and len(rows) == 16


def test_cli_stdout_digest_runs_every_suite():
    # A suite missing from the digest's list would drop out of its byte comparison.
    tree = ast.parse((ROOT / "scripts" / "cli_stdout_digest.py").read_text())
    suites = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [target.id for target in node.targets] == ["SUITES"])
    assert ast.literal_eval(suites) == SUITE_NAMES


def load_digest(monkeypatch):
    # The script puts bench/ on sys.path for its corpus; keep that to the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("cli_stdout_digest", ROOT / "scripts" / "cli_stdout_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_runner(outputs):
    return lambda argv: outputs[" ".join(argv)]


def test_cli_stdout_digest_compare_prints_only_differences(monkeypatch):
    digest = load_digest(monkeypatch)
    invocations = [["mc", "1"], ["critical-table", "a"], ["mc", "2"],
                   ["verify", "--suite", "table"], ["rhw", "x"]]
    ours = {"mc 1": (b"a", 0), "critical-table a": (b"c", 0), "mc 2": (b"b", 0),
            "verify --suite table": (b"d", 0), "rhw x": (b"e", 0)}
    theirs = dict(ours, **{"critical-table a": (b"C", 0), "verify --suite table": (b"D", 1),
                           "rhw x": (b"e", 2)})
    out = io.StringIO()
    assert digest.compare(invocations, stub_runner(ours), stub_runner(theirs), out) == 3
    assert out.getvalue().splitlines() == [
        "stdout  critical-table a",
        "stdout, exit 0/1  verify --suite table",
        "exit 0/2  rhw x",
        "mc: 0 of 2 invocations differ",
        "critical-table: 1 of 1 invocations differ",
        "verify: 1 of 1 invocations differ",
        "rhw: 1 of 1 invocations differ",
        "total: 3 of 5 invocations differ",
    ]
    out = io.StringIO()
    assert digest.compare(invocations, stub_runner(ours), stub_runner(ours), out) == 0
    assert out.getvalue().splitlines()[-1] == "total: 0 of 5 invocations differ"


def test_cli_stdout_digest_lines_hash_stdout_and_exit_code(monkeypatch):
    digest = load_digest(monkeypatch)
    out = io.StringIO()
    digest.digest([["mc", "1"], ["rhw", "x"]], stub_runner({"mc 1": (b"a", 0), "rhw x": (b"", 2)}), out)
    first, second, total = out.getvalue().splitlines()
    assert first == "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb  0  mc 1"
    assert second == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855  2  rhw x"
    assert total.endswith("  total over 2 invocations")


def test_sweep_positivity_holds_and_caches_one_symbol_per_degree_triple(tmp_path):
    done = run_script("sweep_positivity.py", "--lmax", "10", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    first, *rest = done.stdout.splitlines()
    # One count per theorem block: 165 pairs and 295 chain ratios, 36, 10 * 120.
    assert first.startswith("lmax=10: 460 wave-probe pair and chain-ratio checks, "
                            "36 order-one pairs, 1200 zonal pairs in ")
    assert "all asserted positivity and nonpositivity statements hold exactly" in rest
    assert "extended range 2 <= m <= 2 m1 - 2: 120 extra pairs checked, 0 nonpositive" in rest
    # Only the (l1 l2 l3; 1 -1 0) symbols stay cached: 565 degree triples at lmax 10.
    assert done.stderr.startswith("racah cache entries: 565, peak RSS: ")


def test_sweep_layers_import_no_numpy():
    # The sweep script runs on these modules; numpy is for the oracle only.
    code = ("import sys, misiolek.checks, misiolek.structure, misiolek.criterion; "
            "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_wave_stability_prints_one_row_per_default_wave(tmp_path):
    done = run_script("wave_stability.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.startswith("l1 m1 m K=0 ")
    assert [row.split()[:3] for row in rows] == [
        ["3", "2", "2"], ["5", "3", "2"], ["5", "3", "3"], ["7", "5", "4"]]


@pytest.mark.parametrize("argv, message", [
    (["--steps", "1"], "--steps must be at least 2"),
    (["--steps", "0"], "--steps must be at least 2"),
    (["--waves", "3:2:4"], "wave spec '3:2:4': requires 2 <= m <= m1 <= l1"),
    (["--kmax", "-1"], "wave spec '3:2:2': requires K >= 0"),
    (["--waves", "3:2:2", "3:2"], "bad wave spec '3:2', expected l1:m1:m"),
], ids=["steps-1", "steps-0", "order-above-wave", "negative-kmax", "bad-second-spec"])
def test_wave_stability_rejects_bad_flags_before_printing(tmp_path, argv, message):
    done = run_script("wave_stability.py", *argv, cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0] and "Traceback" not in done.stderr
