"""One SHA-256 over what ``allones`` prints for a fixed corpus of argv.

    python3 tools/argv_digest.py REPO

Each argv runs as ``python -m allones ARGV`` in a fresh process, with the
package imported from REPO/src, ``COLUMNS=80`` so help text wraps alike
on every terminal, and a temporary directory as the working directory,
which holds ``k2.ao``, the complete graph on two vertices.  The corpus is
the top-level help, no argument, an unknown and an abbreviated command,
and every argv of ``PARSE_CASES`` in this checkout's tests/test_cli.py:
each command's help, valid flags, usage errors and the other argv forms
argparse reads.  The script prints one SHA-256 over every run's argv,
exit code, stdout and stderr, in order, followed by the number of runs;
bench's ``solve ms:`` line reports measured times, so only its label is
hashed.  Two checkouts that print the same digest under one interpreter
gave byte-identical usage, help, errors and output on all of that corpus.

The corpus is read from this script's own checkout, never from REPO, so
two checkouts are compared on the same argv.  It is read with ``ast``, so
pytest need not be installed.  Nothing is written to REPO.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests" / "test_cli.py"
K2 = "allones 2\nswitches ++\non 00\ne 0 1\n"
TOP_LEVEL = [["--help"], [], ["frobnicate"], ["sol", "k2.ao"]]
TIMES = re.compile(rb"^solve ms: .*$", re.MULTILINE)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("repo", type=Path, help="checkout whose src/ to run")
    return parser.parse_args(argv)


def parse_cases() -> dict:
    """PARSE_CASES from tests/test_cli.py, evaluated as a literal."""
    for node in ast.parse(TESTS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PARSE_CASES"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no PARSE_CASES in {TESTS}")


def corpus() -> list[list[str]]:
    cases = parse_cases()
    return TOP_LEVEL + [[cmd, *rest] for cmd, by_name in cases.items() for rest in by_name.values()]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = args.repo.resolve() / "src"
    if not (src / "allones").is_dir():
        print(f"error: {args.repo} has no src/allones", file=sys.stderr)
        return 2
    # no __pycache__ is left in the checkout either
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80", PYTHONDONTWRITEBYTECODE="1")
    digest, runs = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "k2.ao").write_text(K2, encoding="utf-8")
        for cmd in corpus():
            res = subprocess.run(
                [sys.executable, "-m", "allones", *cmd],
                capture_output=True,
                cwd=tmp,
                env=env,
            )
            out = TIMES.sub(b"solve ms:", res.stdout)
            # repr quotes each field, so no two run lists hash the same bytes
            digest.update(repr((cmd, res.returncode, out, res.stderr)).encode())
            runs += 1
    print(f"{digest.hexdigest()}  {runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
