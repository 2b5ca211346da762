"""The one result type of every invariant sweep.

A sweep is a sequence of check blocks: functions ``check_*(res, ...)`` that
add their check count and failure messages to a ``SuiteResult`` they are
given.  The symmetry block lives in ``structure``, the theorem blocks in
``criterion`` and the rest in ``suites``; this module imports none of them,
and no numpy, so every layer can write into the same result.
"""

from __future__ import annotations

from typing import List, Optional


class SuiteResult:
    __slots__ = ("suite", "l_max", "checks", "failures", "max_deviation")

    def __init__(self, suite: str, l_max: int, checks: int = 0,
                 failures: Optional[List[str]] = None, max_deviation: Optional[float] = None) -> None:
        self.suite = suite
        self.l_max = l_max
        self.checks = checks
        self.failures = [] if failures is None else failures
        self.max_deviation = max_deviation

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def summary(self) -> dict:
        out = {
            "suite": self.suite,
            "lmax": self.l_max,
            "checks": self.checks,
            "failures": len(self.failures),
        }
        if self.max_deviation is not None:
            out["max_deviation"] = self.max_deviation
        if self.failures:
            out["first_failure"] = self.failures[0]
        return out
