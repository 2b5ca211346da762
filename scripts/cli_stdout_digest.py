#!/usr/bin/env python3
"""Digest of the CLI's stdout over the benchmark query corpora and every verify suite.

Runs ``python -m misiolek.cli`` once per query of the corpus that
``bench/corpus.make_corpus`` builds for each seed, each followed by its twin
through the other writer, if it has one: ``--verbose`` for ``mc`` and
``rhw --probe``, ``--format csv`` for ``critical-table``.  Then it runs once
per suite as ``verify --suite NAME``.  Prints one line per invocation (the sha256 of its
stdout, its exit code and its arguments) and last a sha256 over all those
lines.  Two packages give the same total exactly when every invocation wrote
byte-identical stdout and exited with the same code:

    python3 scripts/cli_stdout_digest.py --seeds 1 2 3
    python3 scripts/cli_stdout_digest.py --src OTHER_CHECKOUT/src --seeds 1 2 3

The corpus always comes from this checkout's ``bench/``, which is only read;
``--src`` picks the package that answers (default: this checkout's ``src``).
"""

import argparse
import hashlib
import os
import subprocess
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from corpus import make_corpus  # noqa: E402

#: The choices of ``misiolek verify --suite``.
SUITES = ("wigner", "structure", "oracle", "theorem", "table")


def twins(argv: List[str]) -> List[List[str]]:
    """The query again through its other writer, or nothing if it has none."""
    if argv[0] == "mc" or (argv[0] == "rhw" and "--probe" in argv):
        return [argv + ["--verbose"]]
    if argv[0] == "critical-table":
        i = argv.index("--format") + 1
        return [argv[:i] + ["csv"] + argv[i + 1:]]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the misiolek package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    invocations = [run for seed in args.seeds for _, argv in make_corpus(seed)
                   for run in [argv] + twins(argv)]
    invocations += [["verify", "--suite", name] for name in SUITES]
    total = hashlib.sha256()
    for argv in invocations:
        done = subprocess.run([sys.executable, "-m", "misiolek.cli", *argv], env=env,
                              capture_output=True, timeout=600)
        line = f"{hashlib.sha256(done.stdout).hexdigest()}  {done.returncode}  {' '.join(argv)}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  total over {len(invocations)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
