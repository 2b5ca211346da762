"""CLI stdout and exit codes, replayed in process against a committed golden.

``tests/golden/cli_corpus.txt`` holds one record per invocation: a line
``$ ARGV``, a line ``exit CODE`` and then the invocation's stdout, verbatim.
The invocations are the query corpus of ``scripts/cli_stdout_digest.py``
(seeds 1, 2 and 3, each query followed by its twins, built by that script's
own code) and the hand-picked edge cases of ``EDGE_CASES``.  A change that
moves an output on purpose regenerates the golden by copying the replay the
failing test writes, and names every moved invocation.
"""

import importlib.util
import pathlib
import sys

import mpmath
import pytest

from misiolek.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_corpus.txt"

#: Usage errors, the two finite flags whose result is not finite, a signed
#: zero, degree 0, and the verify summaries at small caps.  The oracle suite
#: is left out: the last bits of its max_deviation depend on the BLAS build.
EDGE_CASES = [
    ["wigner3j", "--l", "2", "x", "0", "--m", "0", "0", "0"],
    ["wigner3j", "--l", "-1", "2", "3", "--m", "0", "0", "0"],
    ["bracket", "--a", "2", "3", "--b", "1", "0"],
    ["mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "nan"],
    ["critical-table", "--l1", "3", "--l2-max", "0"],
    ["rhw", "--wave", "3", "2"],
    ["rhw", "--wave", "3", "0", "--probe", "2", "1"],
    ["rhw", "--wave", "3", "2", "--threshold", "4"],
    ["verify", "--suite", "theorem", "--lmax", "2"],
    ["mc", "--a", "3", "0", "--b", "2", "1", "--rotation", "1.5e308"],
    ["rhw", "--threshold", "2", "--wave", "3", "2", "--K", "1.5e308"],
    ["critical-table", "--l1", "1", "--l2-max", "1", "--format", "json"],
    ["mc", "--a", "1", "0", "--b", "1", "1"],
    ["wigner3j", "--l", "0", "0", "0", "--m", "0", "0", "0"],
    ["bracket", "--a", "0", "0", "--b", "2", "1"],
    ["mc", "--a", "0", "0", "--b", "2", "1"],
    ["mc", "--a", "3", "0", "--b", "0", "0", "--rotation", "1"],
    ["critical-table", "--l1", "0"],
    ["rhw", "--wave", "0", "0", "--probe", "1", "1"],
    ["rhw", "--wave", "3", "2", "--probe", "0", "0"],
    ["verify", "--suite", "wigner", "--lmax", "4"],
    ["verify", "--suite", "structure", "--lmax", "4"],
    ["verify", "--suite", "theorem", "--lmax", "5"],
    ["verify", "--suite", "table"],
]


def corpus_invocations():
    # The script puts bench/ on sys.path for its corpus, and the corpus sets
    # mpmath's precision; neither is kept past the import.
    path = list(sys.path)
    try:
        with mpmath.workprec(mpmath.mp.prec):
            spec = importlib.util.spec_from_file_location(
                "cli_stdout_digest", ROOT / "scripts" / "cli_stdout_digest.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.corpus_invocations([1, 2, 3])
    finally:
        sys.path[:] = path


def replay(invocations, capsys):
    """The golden's text for the invocations, run through ``cli.main``."""
    records = []
    for argv in invocations:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
        records.append(f"$ {' '.join(argv)}\nexit {code}\n{capsys.readouterr().out}")
    return "".join(records)


def test_corpus_has_the_digest_queries_and_the_edge_cases():
    corpus = corpus_invocations()
    assert len(corpus) == 132
    assert not any(argv in corpus for argv in EDGE_CASES)


def test_cli_output_matches_the_golden(capsys, tmp_path):
    text = replay(corpus_invocations() + EDGE_CASES, capsys)
    got = text.splitlines()
    want = GOLDEN.read_text().splitlines()
    if got == want:
        return
    written = tmp_path / "cli_corpus.txt"
    written.write_text(text)
    n = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    argv = next((line for line in reversed(got[:n + 1]) if line.startswith("$ ")), "$ (none)")
    pytest.fail(f"{argv[2:]}: line {n + 1} differs from the golden\n"
                f"  golden: {want[n] if n < len(want) else '(end of file)'}\n"
                f"  replay: {got[n] if n < len(got) else '(end of file)'}\n"
                f"replay written to {written}; copy it to {GOLDEN} if the change is meant")
