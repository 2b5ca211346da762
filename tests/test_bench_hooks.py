"""The names the benchmark harness patches and reads still resolve in the package.

``bench/tracer.py`` wraps functions by module and name, and ``bench/worker.py``
reads two cache counters; a renamed function would otherwise surface only as a
crashed traced bench run.  The harness is read, never installed.
"""

import importlib
import importlib.util
import pathlib

import pytest

from misiolek import exact, wigner
from misiolek.oracle import QuadratureGrid

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in load_tracer().FUNCTIONS])
def test_traced_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_traced_grid_methods_exist():
    # tracer.install rewraps the classmethod's function and the plain method.
    assert isinstance(QuadratureGrid.__dict__.get("for_degree"), classmethod)
    assert callable(QuadratureGrid.__dict__.get("harmonic"))


@pytest.mark.parametrize("fn", [exact.factorial, wigner._racah], ids=["factorial", "racah"])
def test_worker_cache_counters_exist(fn):
    info = fn.cache_info()
    assert all(isinstance(n, int) for n in (info.hits, info.misses, info.currsize))
