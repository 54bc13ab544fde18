"""Byte corpus of the CLI: every command at orders 2..8, replayed in-process.

``goldens/cli_corpus.json`` stores, for each argv of ``corpus_argv()``, the
exit code of ``cli.main`` and the SHA-256 of what it wrote to stdout.  A
change that alters any command's output, even by one byte, fails here and
names the argv.  Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_cli_corpus.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from qgalois.cli import main

CORPUS = Path(__file__).parent / "goldens" / "cli_corpus.json"
ORDERS = range(2, 9)

# Fixed expressions over q, fractions, powers, d, partial and Dk; the last is an evaluation error.
EXPRESSIONS = [
    "3/2*x^2*y - q*y*x + 1/3",
    "(x + 2/5*q*y)^3 - d(x^2)",
    "partial(x^3 - 1/2*x) + D1(x^2)*y",
    "d(q^2*x*y) + 7/4*y^2",
    "partial(y)",
]


def corpus_argv() -> list[list[str]]:
    out = []
    for n in ORDERS:
        order = ["--order", str(n)]
        last = f"D{n - 1}(x^2 + 3/4*q*x) - q^{n + 1}*x"
        for expr in EXPRESSIONS + [last]:
            out.append(["normalize", *order, expr])
        out.append(["normalize", *order, "--json", EXPRESSIONS[1]])
        for expr in ("x^2 + 2/3*q*x", "x*y^2 - 1/2", last):
            out.append(["diff", *order, expr])
        out.append(["diff", *order, "--json", EXPRESSIONS[0]])
        out.append(["matrix", *order, EXPRESSIONS[0]])
        out.append(["matrix", *order, "--json", EXPRESSIONS[3]])
        out.append(["matrix", *order, "--approx", EXPRESSIONS[1]])
        out.append(["tables", *order])
        out.append(["tables", *order, "--json"])
        out.append(["verify", *order, "--json", "--cases", "2", "--seed", "5"])
    return out


def replay(argv: list[str]) -> tuple[int, str]:
    """(exit code, SHA-256 of stdout) of one in-process ``main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_corpus_covers_every_command():
    entries = json.loads(CORPUS.read_text())
    assert [e["argv"] for e in entries] == corpus_argv()


@pytest.mark.parametrize("order", ORDERS)
def test_cli_output_matches_the_corpus(order):
    entries = [e for e in json.loads(CORPUS.read_text()) if e["argv"][2] == str(order)]
    assert entries
    for e in entries:
        assert replay(e["argv"]) == (e["exit"], e["sha256"]), e["argv"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    rows = [dict(zip(("argv", "exit", "sha256"), (a, *replay(a)))) for a in corpus_argv()]
    CORPUS.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} commands to {CORPUS}")
