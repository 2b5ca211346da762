"""Self-test of the benchmark at tiny sizes; run from the repository root.

    python3 bench/selftest.py

Runs every workload with ``--smoke``, untraced and traced.  Checks that each
run is correct and emits exactly the metrics that BENCHMARK.json names, with
their units, and that each layer reads non-zero on the workloads where it
runs.  Also checks that two traced runs of ``sweep`` and of ``queries`` give
identical counts, that the check counts quoted in BENCHMARK.json match the
harness's, and that the benchmark fails in a directory without the package.
Exits 1 on any failure.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

#: Metric-name prefixes that must read non-zero in a traced run of each workload.
MUST_RUN = {
    "sweep": ("exact.", "wigner.threej_lm", "structure.g_real", "criterion.mc_flat",
              "criterion.summands", "criterion.positivity_chain", "suites.theorem", "cli.import"),
    "symmetry": ("exact.", "structure.g_real", "structure.bracket_expand",
                 "structure.validate_symmetries", "suites.structure"),
    "oracle": ("exact.", "oracle.", "structure.bracket_expand", "suites.oracle"),
    "queries": ("exact.", "wigner.threej_lm", "structure.g_real", "criterion.mc_flat",
                "criterion.critical_table", "cli."),
}

failures = []


def check(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def bench(config: dict, workload: str, trace: int, cwd: str = ".", smoke: bool = True):
    argv = config["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(config: dict, workload: str, trace: int) -> dict:
    done = bench(config, workload, trace)
    check(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-1000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(line)}")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
          f"{workload} trace={trace}: {line['attempted']} attempted, {line['failed']} failed")
    listed = config["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    check(emitted == {m["name"]: m["unit"] for m in listed},
          f"{workload} trace={trace}: emitted metrics differ from BENCHMARK.json: {emitted}")
    for name, m in line["metrics"].items():
        value = m["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{workload}: {name} = {value!r}")
        if not trace:
            check(value > 0, f"{workload}: end-to-end metric {name} = {value!r}")
        elif name.startswith(MUST_RUN[workload]):
            check(value > 0, f"{workload}: layer metric {name} reads 0 where the layer runs")
    print(f"ok   {workload} trace={trace}", flush=True)
    return line


def main() -> int:
    with open("BENCHMARK.json") as f:
        config = json.load(f)
    check([w["name"] for w in config["workloads"]] == list(run.WORKLOADS), "workload names")
    for w in config["workloads"]:
        if w["name"] in run.BATCH:
            spec = run.BATCH[w["name"]]
            quoted = re.search(r"degree (\d+) \((\d+) checks\)", w["why"])
            check(quoted is not None and (int(quoted[1]), int(quoted[2])) == (spec.lmax, spec.checks),
                  f"{w['name']}: BENCHMARK.json quotes {quoted and quoted.groups()}, harness has {spec}")

    for workload in run.WORKLOADS:
        result(config, workload, 0)
        traced = result(config, workload, 1)
        if workload in ("sweep", "queries"):
            again = result(config, workload, 1)
            counts = {n: m["value"] for n, m in traced["metrics"].items() if m["unit"] in ("count", "bits", "ratio")}
            counts_again = {n: m["value"] for n, m in again["metrics"].items() if n in counts}
            check(counts == counts_again, "two traced runs gave different counts")

    bare = os.path.join(".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in config["paths"]:
        shutil.copytree(path, os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(config, "sweep", 0, cwd=bare, smoke=False)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          f"without the package: exit {done.returncode}, stdout {done.stdout[-300:]!r}")
    shutil.rmtree(bare)

    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
