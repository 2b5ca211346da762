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

``--compare OTHER_CHECKOUT/src`` runs every invocation under both packages
instead and prints only those whose stdout or exit code differ, then, per
subcommand, how many of its invocations differ; it exits 1 if any does:

    python3 scripts/cli_stdout_digest.py --compare OTHER_CHECKOUT/src --seeds 1 2 3

The corpus always comes from this checkout's ``bench/``, which is only read;
``--src`` picks the package that answers (default: this checkout's ``src``).
"""

import argparse
import hashlib
import os
import subprocess
import sys
from collections import Counter
from typing import Callable, List, TextIO, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from corpus import make_corpus  # noqa: E402

#: The choices of ``misiolek verify --suite``.
SUITES = ("wigner", "structure", "oracle", "theorem", "table")

#: One CLI run: its arguments in, its stdout and exit code out.
Runner = Callable[[List[str]], Tuple[bytes, int]]


def twins(argv: List[str]) -> List[List[str]]:
    """The query again through its other writer, or nothing if it has none."""
    if argv[0] == "mc" or (argv[0] == "rhw" and "--probe" in argv):
        return [argv + ["--verbose"]]
    if argv[0] == "critical-table":
        i = argv.index("--format") + 1
        return [argv[:i] + ["csv"] + argv[i + 1:]]
    return []


def corpus_invocations(seeds: List[int]) -> List[List[str]]:
    """Every query of each seed's corpus, each followed by its twins."""
    return [run for seed in seeds for _, argv in make_corpus(seed) for run in [argv] + twins(argv)]


def cli_runner(src: str) -> Runner:
    """Runs ``python -m misiolek.cli`` with the package found in ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

    def run(argv: List[str]) -> Tuple[bytes, int]:
        done = subprocess.run([sys.executable, "-m", "misiolek.cli", *argv], env=env,
                              capture_output=True, timeout=600)
        return done.stdout, done.returncode

    return run


def digest(invocations: List[List[str]], run: Runner, out: TextIO) -> None:
    """One line per invocation, then the sha256 over those lines."""
    total = hashlib.sha256()
    for argv in invocations:
        stdout, code = run(argv)
        line = f"{hashlib.sha256(stdout).hexdigest()}  {code}  {' '.join(argv)}"
        print(line, file=out, flush=True)
        total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  total over {len(invocations)} invocations", file=out)


def compare(invocations: List[List[str]], ours: Runner, theirs: Runner, out: TextIO) -> int:
    """Print the invocations that differ between two runners and a count per subcommand.

    A differing line names what differs (``stdout``, ``exit A/B`` or both)
    and the arguments.  Returns the number of differing invocations.
    """
    runs, differ = Counter(), Counter()
    for argv in invocations:
        (stdout, code), (other_stdout, other_code) = ours(argv), theirs(argv)
        runs[argv[0]] += 1
        what = (["stdout"] if stdout != other_stdout else []) + (
            [f"exit {code}/{other_code}"] if code != other_code else [])
        if what:
            differ[argv[0]] += 1
            print(f"{', '.join(what)}  {' '.join(argv)}", file=out, flush=True)
    for command in runs:
        print(f"{command}: {differ[command]} of {runs[command]} invocations differ", file=out)
    total = sum(differ.values())
    print(f"total: {total} of {len(invocations)} invocations differ", file=out)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the misiolek package")
    parser.add_argument("--compare", metavar="OTHER_SRC",
                        help="print only the invocations whose output differs under this package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    invocations = corpus_invocations(args.seeds) + [["verify", "--suite", name] for name in SUITES]
    if args.compare:
        return 1 if compare(invocations, cli_runner(args.src), cli_runner(args.compare), sys.stdout) else 0
    digest(invocations, cli_runner(args.src), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
