"""Spans around the package's public functions, installed from outside.

The package is not edited: each traced function is replaced, in every
``misiolek`` module that holds it under some name, by a wrapper that
records one span (name, start, end, parent).  Patching only the defining
module would miss calls made through names imported elsewhere, such as
``suites.g_real`` or ``cli.threej_lm``.  ``lru_cache`` functions are never
wrapped; their counters are read with ``cache_info()``.

Spans stay in memory until :meth:`Tracer.write_spans`.  A span's self time
is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Per-call observers: they read the call's arguments and result and update
# the tracer's counters.  They never change the result.


def _observe_threej(tracer: "Tracer", args: tuple, result) -> None:
    radicand = result.radicand
    bits = radicand.numerator.bit_length() + radicand.denominator.bit_length()
    if bits > tracer.maxima["exact.radicand_bits_max"]:
        tracer.maxima["exact.radicand_bits_max"] = bits


def _observe_g(tracer: "Tracer", args: tuple, result) -> None:
    if result.is_zero():
        tracer.counts["structure.g_real.zero"] += 1


def _observe_report(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["criterion.summands"] += len(result.summands)


def _observe_harmonic(tracer: "Tracer", args: tuple, result) -> None:
    # The grid caches each (l, m) on first request and never evicts, so the
    # first request of a key on a grid is its miss.
    grid, idx = args[0], args[1]
    key = (id(grid), idx.l, idx.m)
    if key not in tracer.seen:
        tracer.seen.add(key)
        tracer.counts["oracle.harmonic.misses"] += 1


#: (module, function, span name, observer) for every traced module-level function.
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("misiolek.wigner", "threej_lm", "wigner.threej_lm", _observe_threej),
    ("misiolek.structure", "g_real", "structure.g_real", _observe_g),
    ("misiolek.structure", "bracket_expand", "structure.bracket_expand", None),
    ("misiolek.structure", "validate_symmetries", "structure.validate_symmetries", None),
    ("misiolek.criterion", "mc_flat", "criterion.mc_flat", _observe_report),
    ("misiolek.criterion", "mc_coriolis", "criterion.mc_coriolis", _observe_report),
    ("misiolek.criterion", "rhw_mc", "criterion.rhw_mc", _observe_report),
    ("misiolek.criterion", "positivity_chain", "criterion.positivity_chain", None),
    ("misiolek.criterion", "critical_table", "criterion.critical_table", None),
    ("misiolek.oracle", "oracle_structure_coeff", "oracle.structure_coeff", None),
    ("misiolek.suites", "structure_suite", "suites.structure", None),
    ("misiolek.suites", "oracle_suite", "suites.oracle", None),
    ("misiolek.suites", "theorem_suite", "suites.theorem", None),
)


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)
        self.seen: set = set()
        self.sites: Dict[str, List[str]] = {}

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (name_id, start, end, parent)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: Dict[str, dict] = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            row = per_name[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return {
            "spans": per_name,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "sites": self.sites,
        }

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, name, start_us, end_us, parent id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("id\tname\tstart_us\tend_us\tparent\n")
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{self.names[name_id]}\t{(start - origin) * 1e6:.1f}\t"
                          f"{(end - origin) * 1e6:.1f}\t{parent}\n")


def _package_modules() -> List[Tuple[str, object]]:
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "misiolek" or name.startswith("misiolek."))]


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every loaded module that binds it.

    The defining modules are imported first, so that a name bound later by a
    lazy import still resolves to a wrapper.
    """
    for module_name, _, _, _ in FUNCTIONS:
        importlib.import_module(module_name)
    from misiolek.oracle import QuadratureGrid

    modules = _package_modules()
    for module_name, attr, span_name, observe in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original, observe)
        sites = []
        for name, mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    sites.append(f"{name}.{key}")
        tracer.sites[span_name] = sites

    build = QuadratureGrid.__dict__["for_degree"].__func__
    QuadratureGrid.for_degree = classmethod(tracer.wrap("oracle.grid_build", build))
    QuadratureGrid.harmonic = tracer.wrap("oracle.harmonic", QuadratureGrid.harmonic, _observe_harmonic)
    tracer.sites["oracle.grid_build"] = ["misiolek.oracle.QuadratureGrid.for_degree"]
    tracer.sites["oracle.harmonic"] = ["misiolek.oracle.QuadratureGrid.harmonic"]
