"""Layered benchmark of misiolek: cold ``verify`` sweeps and a CLI query stream.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The package is driven from outside, with ``PYTHONPATH=src``, one process at a
time.  Batch workloads (``sweep``, ``symmetry``, ``oracle``) spawn one fresh
worker per repetition, so every repetition starts with cold caches, as
``misiolek verify`` does.  ``queries`` runs a seeded corpus of
``python -m misiolek.cli`` invocations in a closed loop with one client.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced processes side by side and prints the per-layer metrics.  The last
line of stdout is the result; the full record, with samples and context,
goes to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import corpus  # noqa: E402
from worker import TRACE_PREFIX  # noqa: E402


@dataclass(frozen=True)
class Batch:
    """A batch workload: one ``run_suite(suite, lmax)`` per fresh worker."""

    suite: str
    lmax: int
    checks: int


#: The suites' check counts at these caps are part of the correctness gate.
BATCH: Dict[str, Batch] = {
    "sweep": Batch("theorem", 10, 1696),
    "symmetry": Batch("structure", 5, 6339),
    "oracle": Batch("oracle", 6, 13678),
}
#: Tiny caps used by ``--smoke``, for the benchmark's self-test.
SMOKE_BATCH: Dict[str, Batch] = {
    "sweep": Batch("theorem", 4, 120),
    "symmetry": Batch("structure", 3, 964),
    "oracle": Batch("oracle", 3, 1008),
}
WORKLOADS = tuple(BATCH) + ("queries",)

MIN_REPS = 3          # batch repetitions per untraced run
MIN_PASSES = 2        # corpus passes per untraced queries run
SETUP_PROBES = 8      # cold imports of misiolek.cli timed for setup_s on queries
CLI_PROBES = 3        # repetitions of each start-up probe in a traced run
TAIL_PERCENTILE = 80  # >= 10 samples lie beyond it at the minimum of 2 x 28 queries
PROCESS_TIMEOUT = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "exact.factorial.calls": "count",
    "exact.factorial.misses": "count",
    "exact.radicand_bits_max": "bits",
    "wigner.threej_lm.calls": "count",
    "wigner.threej_lm.self_s": "s",
    "wigner.racah.misses": "count",
    "wigner.racah.hit_ratio": "ratio",
    "wigner.racah.entries": "count",
    "structure.g_real.calls": "count",
    "structure.g_real.self_s": "s",
    "structure.g_real.zero_ratio": "ratio",
    "structure.bracket_expand.calls": "count",
    "structure.bracket_expand.self_s": "s",
    "structure.validate_symmetries.self_s": "s",
    "criterion.mc_flat.calls": "count",
    "criterion.mc_flat.self_s": "s",
    "criterion.summands": "count",
    "criterion.positivity_chain.calls": "count",
    "criterion.positivity_chain.self_s": "s",
    "criterion.critical_table.self_s": "s",
    "oracle.grid_build_s": "s",
    "oracle.harmonic.calls": "count",
    "oracle.harmonic.misses": "count",
    "oracle.harmonic.self_s": "s",
    "oracle.structure_coeff.calls": "count",
    "oracle.structure_coeff.self_s": "s",
    "suites.theorem.self_s": "s",
    "suites.structure.self_s": "s",
    "suites.oracle.self_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_s": "s",
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Finished:
    """A child process run to completion, timed from spawn to exit."""

    code: int
    stdout: str
    stderr: str
    spawned: float
    latency_s: float
    rss_mb: float


def spawn(argv: List[str], env: Dict[str, str]) -> Finished:
    """Run one child, draining both pipes, and reap it with its own rusage."""
    spawned = _monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        chunks = {proc.stdout: [], proc.stderr: []}
        deadline = spawned + PROCESS_TIMEOUT
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(timeout=max(0.0, deadline - _monotonic()))
                if not ready:
                    raise TimeoutError(f"{argv[1:4]} ran past {PROCESS_TIMEOUT} s")
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    latency = _monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                    b"".join(chunks[proc.stderr]).decode(), spawned, latency,
                    usage.ru_maxrss / 1024.0)


class Harness:
    """Shared state of one benchmark run: paths, environment, spans directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.out_dir = os.path.join(root, ".bench_out")
        self.spans_dir = os.path.join(self.out_dir, "spans")
        os.makedirs(self.spans_dir, exist_ok=True)
        self.worker = os.path.join(BENCH_DIR, "worker.py")

    def run_worker(self, *args: str) -> dict:
        """Spawn the worker; its stdout is one JSON line."""
        done = spawn([sys.executable, self.worker, *args], self.env)
        if done.code != 0:
            raise RuntimeError(f"worker {args} exited {done.code}: {done.stderr[-2000:]}")
        out = json.loads(done.stdout)
        out.update(setup_s=out["ready"] - done.spawned, latency_s=done.latency_s, rss_mb=done.rss_mb)
        return out

    def cli(self, argv: List[str], traced: bool = False, spans: str = "") -> Finished:
        if traced:
            return spawn([sys.executable, self.worker, "cli", spans, *argv], self.env)
        return spawn([sys.executable, "-m", "misiolek.cli", *argv], self.env)

    def probes(self) -> Dict[str, float]:
        """Start-up costs: bare interpreter, import of misiolek.cli, numpy's share of it."""
        interpreter = [spawn([sys.executable, "-c", "pass"], self.env).latency_s for _ in range(CLI_PROBES)]
        imports = [self.run_worker("probe")["import_s"] for _ in range(CLI_PROBES)]
        numpy = []
        for _ in range(CLI_PROBES):
            done = spawn([sys.executable, "-X", "importtime", "-c", "import misiolek.cli"], self.env)
            us = [int(line.split("|")[1]) for line in done.stderr.splitlines()
                  if line.startswith("import time:") and line.split("|")[-1].strip() == "numpy"]
            numpy.append(us[0] / 1e3 if us else 0.0)
        return {
            "cli.interpreter_ms": statistics.median(interpreter) * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3,
            "cli.import_numpy_ms": statistics.median(numpy),
        }


def _tail(samples: List[float]) -> float:
    """Nearest-rank TAIL_PERCENTILE of the samples."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1)]


def _latency_metrics(setups: List[float], walls: List[float], latencies: List[float],
                     rss: List[float], rss_of=statistics.median) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_tail_ms": _tail(latencies) * 1e3,
        "peak_rss_mb": rss_of(rss),
    }


def _layer_metrics(spans: Dict[str, dict], counts: Dict[str, int], maxima: Dict[str, int],
                   caches: Dict[str, dict]) -> Dict[str, float]:
    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    fact, racah = caches["factorial"], caches["racah"]
    racah_lookups = racah["hits"] + racah["misses"]
    g_calls = calls("structure.g_real")
    out = {
        "exact.factorial.calls": fact["hits"] + fact["misses"],
        "exact.factorial.misses": fact["misses"],
        "exact.radicand_bits_max": maxima.get("exact.radicand_bits_max", 0),
        "wigner.threej_lm.calls": calls("wigner.threej_lm"),
        "wigner.threej_lm.self_s": self_s("wigner.threej_lm"),
        "wigner.racah.misses": racah["misses"],
        "wigner.racah.hit_ratio": racah["hits"] / racah_lookups if racah_lookups else 0.0,
        "wigner.racah.entries": racah["entries"],
        "structure.g_real.calls": g_calls,
        "structure.g_real.self_s": self_s("structure.g_real"),
        "structure.g_real.zero_ratio": counts.get("structure.g_real.zero", 0) / g_calls if g_calls else 0.0,
        "structure.bracket_expand.calls": calls("structure.bracket_expand"),
        "structure.bracket_expand.self_s": self_s("structure.bracket_expand"),
        "structure.validate_symmetries.self_s": self_s("structure.validate_symmetries"),
        "criterion.mc_flat.calls": calls("criterion.mc_flat"),
        "criterion.mc_flat.self_s": self_s("criterion.mc_flat"),
        "criterion.summands": counts.get("criterion.summands", 0),
        "criterion.positivity_chain.calls": calls("criterion.positivity_chain"),
        "criterion.positivity_chain.self_s": self_s("criterion.positivity_chain"),
        "criterion.critical_table.self_s": self_s("criterion.critical_table"),
        "oracle.grid_build_s": spans.get("oracle.grid_build", {}).get("total_s", 0.0),
        "oracle.harmonic.calls": calls("oracle.harmonic"),
        "oracle.harmonic.misses": counts.get("oracle.harmonic.misses", 0),
        "oracle.harmonic.self_s": self_s("oracle.harmonic"),
        "oracle.structure_coeff.calls": calls("oracle.structure_coeff"),
        "oracle.structure_coeff.self_s": self_s("oracle.structure_coeff"),
    }
    for suite in ("theorem", "structure", "oracle"):
        out[f"suites.{suite}.self_s"] = self_s(f"suites.{suite}")
    return out


def _call_counts(trace: dict) -> dict:
    """The deterministic part of a trace: calls per span name and the counters."""
    return {"calls": {k: v["calls"] for k, v in trace["spans"].items()},
            "counts": trace["counts"], "maxima": trace["maxima"]}


def run_batch(h: Harness, name: str, spec: Batch, seconds: float, trace: bool, min_reps: int) -> dict:
    h.run_worker("probe")  # untimed: leaves .pyc files behind, as an install does
    problems: List[str] = []
    attempted = failed = 0

    def rep(traced: bool, index: int) -> dict:
        nonlocal attempted, failed
        spans = os.path.join(h.spans_dir, f"{name}-{index}.tsv")
        out = h.run_worker("suite", spec.suite, str(spec.lmax), "1" if traced else "0", spans)
        attempted += out["checks"]
        failed += out["failures"]
        if out["failures"]:
            problems.append(f"{out['failures']} failed checks, first: {out['first_failure']}")
        if out["checks"] != spec.checks:
            failed += 1
            problems.append(f"{out['checks']} checks, expected {spec.checks}")
        return out

    start = _monotonic()
    if not trace:
        reps: List[dict] = []
        while len(reps) < min_reps or (
                _monotonic() - start + statistics.median(r["latency_s"] for r in reps) <= seconds):
            reps.append(rep(False, len(reps)))
        metrics = _latency_metrics([r["setup_s"] for r in reps], [r["wall_s"] for r in reps],
                                   [r["latency_s"] for r in reps], [r["rss_mb"] for r in reps])
        samples = {"reps": [{k: r[k] for k in ("setup_s", "wall_s", "latency_s", "rss_mb")} for r in reps]}
    else:
        plain: List[dict] = []
        traced: List[dict] = []
        while not traced or (_monotonic() - start) / len(traced) * (len(traced) + 1) <= seconds:
            plain.append(rep(False, 2 * len(traced)))
            traced.append(rep(True, 2 * len(traced) + 1))
        first = traced[0]
        for other in traced[1:]:
            if _call_counts(other["trace"]) != _call_counts(first["trace"]):
                failed += 1
                problems.append("two traced repetitions gave different call counts")
        metrics = _layer_metrics(first["trace"]["spans"], first["trace"]["counts"],
                                 first["trace"]["maxima"], first["caches"])
        metrics.update(h.probes())
        metrics["cli.main_ms"] = 0.0
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        samples = {"untraced_wall_s": [r["wall_s"] for r in plain],
                   "traced_wall_s": [r["wall_s"] for r in traced],
                   "sites": first["trace"]["sites"],
                   "spans": first["trace"]["spans"]}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "workload": {"suite": spec.suite, "lmax": spec.lmax, "expected_checks": spec.checks},
            "samples": samples}


def _take_trace(done: Finished) -> dict:
    """Remove the tracer's line from a traced query's stderr and parse it."""
    lines = done.stderr.splitlines(keepends=True)
    trace = [line for line in lines if line.startswith(TRACE_PREFIX)]
    if len(trace) != 1:
        raise RuntimeError(f"traced query left {len(trace)} trace lines: {done.stderr[-2000:]}")
    done.stderr = "".join(line for line in lines if not line.startswith(TRACE_PREFIX))
    return json.loads(trace[0][len(TRACE_PREFIX):])


def _merge(summaries: List[dict]) -> tuple:
    """Sum spans, counts and cache counters over processes; maxima and cache sizes take the max."""
    spans: Dict[str, dict] = {}
    counts: Dict[str, int] = {}
    maxima: Dict[str, int] = {}
    caches = {name: {"hits": 0, "misses": 0, "entries": 0} for name in ("factorial", "racah")}
    for s in summaries:
        for name, row in s["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += row[key]
        for name, n in s["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in s["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), n)
        for name, info in s["caches"].items():
            caches[name]["hits"] += info["hits"]
            caches[name]["misses"] += info["misses"]
            caches[name]["entries"] = max(caches[name]["entries"], info["entries"])
    return spans, counts, maxima, caches


def run_queries(h: Harness, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    queries = corpus.make_corpus(seed, {k: 1 for k in corpus.PASS_MAKEUP} if smoke else corpus.PASS_MAKEUP)
    warm = h.cli(["wigner3j", "--l", "1", "1", "0", "--m", "0", "0", "0"])  # untimed: leaves .pyc files
    if warm.code != 0:
        raise RuntimeError(f"warm-up query failed: {warm.stderr[-2000:]}")
    problems: List[str] = []
    failed = 0

    def run_pass(traced: bool) -> tuple:
        start = _monotonic()
        done = [h.cli(argv, traced, os.path.join(h.spans_dir, f"queries-{i}.tsv"))
                for i, (_, argv) in enumerate(queries)]
        return _monotonic() - start, done

    def check_pass(done: List[Finished], reference: List[Finished]) -> None:
        nonlocal failed
        for (kind, argv), d, ref in zip(queries, done, reference):
            found = corpus.check_response(kind, argv, d.code, d.stdout, d.stderr)
            if d.stdout != ref.stdout:
                found.append("stdout differs from the first untraced pass")
            if found:
                failed += 1
                problems.append(f"{' '.join(argv)}: {'; '.join(found)}")

    start = _monotonic()
    if not trace:
        setups = [h.run_worker("probe")["setup_s"] for _ in range(SETUP_PROBES)]
        passes = []
        while len(passes) < (1 if smoke else MIN_PASSES) or (
                _monotonic() - start + statistics.median(p[0] for p in passes) <= seconds):
            passes.append(run_pass(False))
        for _, done in passes:  # validated after all timing, against the first pass
            check_pass(done, passes[0][1])
        latencies = [d.latency_s for _, done in passes for d in done]
        metrics = _latency_metrics(setups, [p[0] for p in passes], latencies,
                                   [d.rss_mb for _, done in passes for d in done], rss_of=max)
        attempted = len(latencies)
        samples = {"setup_s": setups, "pass_s": [p[0] for p in passes],
                   "latency_s": latencies, "tail_percentile": TAIL_PERCENTILE}
    else:
        plain_s, plain = run_pass(False)
        traced_s, traced = run_pass(True)
        _, again = run_pass(True)
        summaries = [_take_trace(d) for d in traced]
        for (_, argv), first, other in zip(queries, summaries, [_take_trace(d) for d in again]):
            if _call_counts(other) != _call_counts(first):
                failed += 1
                problems.append(f"{' '.join(argv)}: two traced runs gave different call counts")
        check_pass(plain, plain)
        check_pass(traced, plain)
        check_pass(again, plain)
        metrics = _layer_metrics(*_merge(summaries))
        metrics.update(h.probes())
        metrics["cli.main_ms"] = statistics.median(s["main_s"] for s in summaries) * 1e3
        metrics["trace.overhead_s"] = traced_s - plain_s
        attempted = 3 * len(queries)
        samples = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "workload": {"corpus": corpus.describe(queries),
                         "argv": [argv for _, argv in queries]},
            "samples": samples}


def _git(root: str, *args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def context(root: str) -> dict:
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "loadavg_start": os.getloadavg(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the query corpus")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for bench/selftest.py")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "misiolek", "cli.py")):
        print(f"bench: no src/misiolek under {root}; run from the repository root", file=sys.stderr)
        return 2
    info = context(root)
    h = Harness(root)
    if args.workload == "queries":
        result = run_queries(h, args.seed, args.seconds, bool(args.trace), args.smoke)
    else:
        spec = (SMOKE_BATCH if args.smoke else BATCH)[args.workload]
        result = run_batch(h, args.workload, spec, args.seconds, bool(args.trace), 1 if args.smoke else MIN_REPS)
    info["loadavg_end"] = os.getloadavg()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, context=info, args=vars(args), result=line)
    path = os.path.join(h.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as out:
        json.dump(record, out, indent=1)
    for problem in result["problems"][:20]:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    print(json.dumps({"context": info, "workload": result["workload"] if args.workload != "queries"
                      else result["workload"]["corpus"], "record": os.path.relpath(path, root)}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
