"""One fresh benchmark process, spawned by ``bench/run.py`` with ``PYTHONPATH=src``.

Modes:

  worker.py suite NAME LMAX TRACE SPANS   run_suite(NAME, LMAX) once from cold caches
  worker.py probe                         time ``import misiolek.cli`` and exit
  worker.py cli SPANS ARGV...             misiolek.cli.main(ARGV) under the tracer

``suite`` and ``probe`` print one JSON line on stdout.  ``cli`` leaves stdout
to the CLI and appends one line, starting with ``TRACE_PREFIX``, to stderr.
Timestamps named ``ready`` are CLOCK_MONOTONIC readings, which the parent
compares with its own reading taken just before the spawn.
"""

import json
import os
import sys
import time

TRACE_PREFIX = "bench-trace "


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _check_source() -> None:
    """Refuse to measure a ``misiolek`` imported from outside ./src."""
    import misiolek

    expected = os.path.join(os.getcwd(), "src", "misiolek")
    found = os.path.dirname(os.path.abspath(misiolek.__file__))
    if found != expected:
        sys.exit(f"worker: misiolek imported from {found}, expected {expected}")


def _caches() -> dict:
    from misiolek import exact, wigner

    out = {}
    for name, fn in (("factorial", exact.factorial), ("racah", wigner._racah)):
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    return out


def _check_cold() -> None:
    """A fresh process must start with empty factorial and Racah caches."""
    for name, info in _caches().items():
        if info["entries"] or info["hits"] or info["misses"]:
            sys.exit(f"worker: {name} cache not cold at start: {info}")


def suite(name: str, lmax: int, trace: bool, spans_path: str) -> None:
    from misiolek.suites import run_suite

    ready = _monotonic()
    _check_source()
    _check_cold()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    result = run_suite(name, lmax)
    wall = time.perf_counter() - start
    out = {
        "ready": ready,
        "wall_s": wall,
        "checks": result.checks,
        "failures": len(result.failures),
        "first_failure": result.failures[0] if result.failures else None,
        "caches": _caches(),
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    print(json.dumps(out))


def probe() -> None:
    start = time.perf_counter()
    import misiolek.cli  # noqa: F401

    import_s = time.perf_counter() - start
    ready = _monotonic()
    _check_source()
    _check_cold()
    print(json.dumps({"ready": ready, "import_s": import_s}))


def cli(spans_path: str, argv: list) -> None:
    import tracer as tracing

    start = time.perf_counter()
    import misiolek.cli

    import_s = time.perf_counter() - start
    _check_source()
    _check_cold()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    start = time.perf_counter()
    try:
        code = misiolek.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update(caches=_caches(), import_s=import_s, main_s=main_s)
    tracer.write_spans(spans_path)
    sys.stderr.write(TRACE_PREFIX + json.dumps(summary) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "suite":
        suite(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5])
    elif mode == "probe":
        probe()
    elif mode == "cli":
        cli(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(f"worker: unknown mode {mode!r}")
