"""Seeded corpus of CLI queries, and the checks on their responses.

The corpus is the only seeded input of the benchmark.  No record of how the
CLI is used exists, so a pass follows a stated rule instead of a traffic
estimate: the same number of queries of every kind (``PASS_MAKEUP``), each
with degrees drawn uniformly up to the degree to which the package itself
verifies the layer that serves it (``MAX_DEGREE``).  The seed picks the
degrees, orders and numeric flags and the order of the pass.  Every query is
valid, so every response must have exit code 0.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from typing import Dict, List, Tuple

from mpmath import mp, mpf, pi, sqrt

mp.dps = 50  # exact terms are evaluated at 50 digits before the 1e-12 comparison

#: The query kinds of the CLI, each the same number of times per pass.
KINDS = ("mc", "mc-rotation", "wigner3j", "bracket", "critical-table", "rhw-probe", "rhw-threshold")
PER_KIND = 4
PASS_MAKEUP: Dict[str, int] = {kind: PER_KIND for kind in KINDS}

#: Largest degree drawn for each kind, and where the package verifies it:
#: the criterion (``mc``, ``rhw``) to 12, the default of ``theorem_suite``;
#: brackets to 10, the default of ``structure_suite``; ``critical-table``
#: over the ``l1`` of ``REFERENCE_RATIOS`` (up to 7) at the CLI's default
#: ``--l2-max 6``; 3j symbols to 100, the largest degree in the ROADMAP's
#: Racah baseline.
MAX_DEGREE: Dict[str, int] = {
    "mc": 12,
    "mc-rotation": 12,
    "wigner3j": 100,
    "bracket": 10,
    "critical-table": 7,
    "rhw-probe": 12,
    "rhw-threshold": 12,
}
CRITICAL_TABLE_L2_MAX = 6

DEGREE_BINS = ((1, 5), (6, 10), (11, 20), (21, 50), (51, 100))

Query = Tuple[str, List[str]]


def _decimal(rng: random.Random, lo: int, hi: int) -> str:
    """A two-decimal number in [lo/100, hi/100], spelled as a user would."""
    return repr(rng.randint(lo, hi) / 100)


def _index(rng: random.Random, lo: int, hi: int) -> Tuple[int, int]:
    l = rng.randint(lo, hi)
    return l, rng.randint(-l, l)


def _wigner(rng: random.Random, top: int) -> List[str]:
    while True:
        l1, l2 = rng.randint(1, top), rng.randint(1, top)
        l3 = rng.randint(abs(l1 - l2), min(l1 + l2, top))
        m1, m2 = rng.randint(-l1, l1), rng.randint(-l2, l2)
        if abs(m1 + m2) <= l3:
            break
    return ["wigner3j", "--l", *map(str, (l1, l2, l3)), "--m", *map(str, (m1, m2, -m1 - m2))]


def _query(kind: str, rng: random.Random) -> List[str]:
    top = MAX_DEGREE[kind]
    if kind in ("mc", "mc-rotation"):
        (l1, m1), (l2, m2) = _index(rng, 1, top), _index(rng, 1, top)
        argv = ["mc", "--a", str(l1), str(m1), "--b", str(l2), str(m2)]
        if kind == "mc-rotation":
            argv += ["--rotation", _decimal(rng, -400, 400)]
        return argv
    if kind == "wigner3j":
        return _wigner(rng, top)
    if kind == "bracket":
        (l1, m1), (l2, m2) = _index(rng, 1, top), _index(rng, 1, top)
        return ["bracket", "--a", str(l1), str(m1), "--b", str(l2), str(m2)]
    if kind == "critical-table":
        return ["critical-table", "--l1", str(rng.randint(1, top)),
                "--l2-max", str(CRITICAL_TABLE_L2_MAX), "--format", "json"]
    if kind == "rhw-probe":
        # the wave must travel (m1 != 0), so its degree is at least 1
        l1 = rng.randint(1, top)
        m1 = rng.choice([m for m in range(-l1, l1 + 1) if m])
        l2, m2 = _index(rng, 1, top)
        return ["rhw", "--wave", str(l1), str(m1),
                "--A", _decimal(rng, -200, 200), _decimal(rng, -200, 200),
                "--C", _decimal(rng, 25, 200), "--K", _decimal(rng, 0, 325),
                "--probe", str(l2), str(m2)]
    if kind == "rhw-threshold":
        # rhw_threshold requires 2 <= m <= m1 <= l1
        l1 = rng.randint(2, top)
        m1 = rng.randint(2, l1)
        return ["rhw", "--threshold", str(rng.randint(2, m1)), "--wave", str(l1), str(m1),
                "--K", _decimal(rng, 0, 325)]
    raise ValueError(f"unknown query kind {kind!r}")


def make_corpus(seed: int, makeup: Dict[str, int] = PASS_MAKEUP) -> List[Query]:
    """One pass of the corpus: ``(kind, argv)`` pairs in seeded order."""
    rng = random.Random(seed)
    corpus = [(kind, _query(kind, rng)) for kind, count in makeup.items() for _ in range(count)]
    rng.shuffle(corpus)
    return corpus


def max_degree(argv: List[str]) -> int:
    """Largest degree named in a query's flags."""
    degree_flags = {"--l": 3, "--a": 1, "--b": 1, "--wave": 1, "--probe": 1, "--l1": 1, "--l2-max": 1}
    best = 0
    for i, token in enumerate(argv):
        if token in degree_flags:
            best = max([best] + [int(v) for v in argv[i + 1:i + 1 + degree_flags[token]]])
    return best


def describe(corpus: List[Query]) -> dict:
    """Counts per subcommand and kind, and a histogram of the largest degree per query."""
    histogram = Counter()
    for _, argv in corpus:
        d = max_degree(argv)
        lo, hi = next(b for b in DEGREE_BINS if b[0] <= d <= b[1])
        histogram[f"{lo}-{hi}"] += 1
    return {
        "queries_per_pass": len(corpus),
        "per_subcommand": dict(Counter(argv[0] for _, argv in corpus)),
        "per_kind": dict(Counter(kind for kind, _ in corpus)),
        "degree_histogram": {f"{lo}-{hi}": histogram[f"{lo}-{hi}"] for lo, hi in DEGREE_BINS},
    }


# ---------------------------------------------------------------- checks

def _ratio(text: str):
    p, q = text.split("/")
    return mpf(int(p)) / int(q)


def _term_value(term: dict):
    """Value of one exact term: sign * (p/q or sqrt(p/q)) * pi**pi_exp."""
    if set(term) == {"sign", "rational", "pi_exp"}:
        magnitude = _ratio(term["rational"])
    elif set(term) == {"sign", "radicand", "pi_exp"}:
        magnitude = sqrt(_ratio(term["radicand"]))
    else:
        raise ValueError(f"bad term keys {sorted(term)}")
    if term["sign"] not in (-1, 0, 1) or term["pi_exp"] not in (0, -0.5, -1):
        raise ValueError(f"bad term {term}")
    return term["sign"] * magnitude * pi ** mpf(term["pi_exp"])


def _close(got: float, want) -> bool:
    """``got`` equals the exact value to 1e-12 relative (exactly, when it is 0)."""
    if want == 0:
        return got == 0
    return isinstance(got, float) and math.isfinite(got) and abs(got - want) <= 1e-12 * abs(want)


def _check_mc(record: dict, request: dict) -> List[str]:
    problems = []
    if set(record) != {"request", "status", "exact", "float"}:
        problems.append(f"keys {sorted(record)}")
    elif record["request"] != request or record["status"] != "ok":
        problems.append(f"request/status {record['request']} {record['status']}")
    else:
        want = sum((_term_value(t) for t in record["exact"]), mpf(0))
        if not _close(record["float"], want):
            problems.append(f"float {record['float']!r} != exact terms {mp.nstr(want, 20)}")
    return problems


def _pairs(argv: List[str], flag: str, conv=int) -> list:
    i = argv.index(flag)
    return [conv(argv[i + 1]), conv(argv[i + 2])]


def _flag(argv: List[str], flag: str, conv=float):
    return conv(argv[argv.index(flag) + 1])


def _check_wigner(records: List[dict], argv: List[str]) -> List[str]:
    from sympy import Rational, sign
    from sympy.physics.wigner import wigner_3j

    (record,) = records
    ls = [int(v) for v in argv[2:5]]
    ms = [int(v) for v in argv[6:9]]
    if set(record) != {"request", "status", "exact", "float"} or record["request"] != {"l": ls, "m": ms}:
        return [f"shape {record}"]
    problems = []
    exact = record["exact"]
    if record["status"] != "ok" or exact["pi_exp"] != 0:
        problems.append(f"status/pi_exp {record['status']} {exact['pi_exp']}")
    if not _close(record["float"], exact["sign"] * sqrt(_ratio(exact["radicand"]))):
        problems.append(f"float {record['float']!r} != exact {exact}")
    reference = wigner_3j(*ls, *ms)
    p, q = exact["radicand"].split("/")
    if int(sign(reference)) != exact["sign"] or Rational(reference ** 2) != Rational(int(p), int(q)):
        problems.append(f"exact {exact} != sympy wigner_3j {reference}")
    return problems


def _check_bracket(records: List[dict], argv: List[str]) -> List[str]:
    a, b = _pairs(argv, "--a"), _pairs(argv, "--b")
    request = {"a": a, "b": b}
    if len(records) == 1 and records[0] == {"request": request, "status": "zero-by-selection-rule", "terms": []}:
        return []
    problems = []
    degrees = []
    for r in records:
        if set(r) != {"request", "status", "l3", "m3", "phase", "g", "coefficient"}:
            problems.append(f"keys {sorted(r)}")
            continue
        degrees.append(r["l3"])
        if r["request"] != request or r["status"] != "ok" or r["m3"] != a[1] + b[1]:
            problems.append(f"request/status/m3 {r}")
        if not abs(a[0] - b[0]) < r["l3"] < a[0] + b[0] or r["phase"] not in ("+i", "-i"):
            problems.append(f"l3/phase {r['l3']} {r['phase']}")
            continue
        g = r["g"]
        if g["sign"] == 0 or g["pi_exp"] != -0.5:
            problems.append(f"g {g}")
            continue
        want = (1 if r["phase"] == "+i" else -1) * g["sign"] * sqrt(_ratio(g["radicand"])) / sqrt(pi)
        re, im = r["coefficient"]
        if re != 0 or not _close(im, want):
            problems.append(f"coefficient {r['coefficient']} != exact g {g}")
    if not records or degrees != sorted(set(degrees)):
        problems.append(f"degrees {degrees}")
    return problems


def _check_table(records: List[dict], argv: List[str]) -> List[str]:
    l1, l2_max = _flag(argv, "--l1", int), _flag(argv, "--l2-max", int)
    cells = [(l2, m2) for l2 in range(1, l2_max + 1) for m2 in range(1, l2_max + 1)]
    if [(r.get("l1"), r.get("l2"), r.get("m2")) for r in records] != [(l1, l2, m2) for l2, m2 in cells]:
        return [f"cells of table l1={l1} l2_max={l2_max}"]
    problems = []
    for r in records:
        if r["m2"] > r["l2"]:
            ok = r == {"l1": l1, "l2": r["l2"], "m2": r["m2"], "status": "not-applicable"}
        elif r["status"] == "ok":
            ok = (set(r) == {"l1", "l2", "m2", "status", "ratio", "direction"}
                  and isinstance(r["ratio"], float) and math.isfinite(r["ratio"])
                  and r["direction"] in ("<", ">"))
        else:
            ok = r == {"l1": l1, "l2": r["l2"], "m2": r["m2"], "status": "undefined"}
        if not ok:
            problems.append(f"cell {r}")
    return problems


def _check_rhw_probe(records: List[dict], argv: List[str]) -> List[str]:
    (record,) = records
    amplitude = _pairs(argv, "--A", float)
    C, K = _flag(argv, "--C"), _flag(argv, "--K")
    request = {"wave": _pairs(argv, "--wave"), "A": amplitude, "C": C, "K": K,
               "rotation": -K * C, "probe": _pairs(argv, "--probe")}
    return _check_mc(record, request)


def _check_rhw_threshold(records: List[dict], argv: List[str]) -> List[str]:
    (record,) = records
    request = {"wave": _pairs(argv, "--wave"), "threshold_order": _flag(argv, "--threshold", int),
               "K": _flag(argv, "--K")}
    if record.keys() != {"request", "status", "float"} or record["request"] != request:
        return [f"shape {record}"]
    if record["status"] != "ok" or not (isinstance(record["float"], float) and math.isfinite(record["float"])):
        return [f"status/float {record}"]
    return []


def _check_mc_query(records: List[dict], argv: List[str]) -> List[str]:
    (record,) = records
    request = {"a": _pairs(argv, "--a"), "b": _pairs(argv, "--b")}
    if "--rotation" in argv:
        request["rotation"] = _flag(argv, "--rotation")
    return _check_mc(record, request)


_CHECKS = {
    "mc": _check_mc_query,
    "mc-rotation": _check_mc_query,
    "wigner3j": _check_wigner,
    "bracket": _check_bracket,
    "critical-table": _check_table,
    "rhw-probe": _check_rhw_probe,
    "rhw-threshold": _check_rhw_threshold,
}


def check_response(kind: str, argv: List[str], code: int, stdout: str, stderr: str) -> List[str]:
    """Problems with one response: exit code, JSON shape, exact-vs-float agreement."""
    if code != 0 or stderr:
        return [f"exit code {code}, stderr {stderr[-300:]!r}"]
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
        return _CHECKS[kind](records, argv)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unparseable response: {exc!r}"]
