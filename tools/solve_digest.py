"""One SHA-256 over ``allones solve``'s answers to every benchmark input.

    python3 tools/solve_digest.py REPO SEED [SEED ...]

For each SEED, every input of every workload in REPO/perfbench/workloads.py
is rendered into a temporary directory.  Each file is then solved in this
process, once with ``--output json`` and once with ``--output text``, by
``allones.cli.main(["solve", FILE, "--output", FORMAT, "--exact-limit",
LIMIT])``, where LIMIT is the workload's own and the package is imported
from REPO/src.  The script prints one SHA-256 over every run's exit code,
stdout and stderr, in order, followed by the number of runs.  Two checkouts
that print the same digest for the same seeds gave byte-identical answers
on all of those inputs, errors included.

The workloads module is only imported, and nothing is written to the
checkout.  Files are passed by their name inside the temporary directory,
so an answer never depends on where that directory is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("repo", type=Path, help="checkout whose src/ and perfbench/ to use")
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED", help="workload seed")
    return parser.parse_args(argv)


def solve_runs(cli, workloads, seeds):
    """Yield (exit code, stdout, stderr) of every solve, in a fixed order.

    Runs in the current directory, which must be empty and writable."""
    for seed in seeds:
        for workload in workloads.values():
            limit = str(workload.exact_limit)
            for idx, (inst, _) in enumerate(workload.inputs(seed)):
                name = f"{workload.name}-{seed}-{idx:04d}.ao"
                Path(name).write_text(inst.render(), encoding="utf-8")
                for fmt in ("json", "text"):
                    out, err = io.StringIO(), io.StringIO()
                    try:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            rc = cli.main(["solve", name, "--output", fmt, "--exact-limit", limit])
                    except SystemExit as exc:
                        rc = exc.code
                    yield rc, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = args.repo.resolve()
    src, bench = repo / "src", repo / "perfbench"
    if not (src / "allones").is_dir() or not (bench / "workloads.py").is_file():
        print(f"error: {repo} has no src/allones or no perfbench/workloads.py", file=sys.stderr)
        return 2
    # no __pycache__ is left in the checkout either
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(bench)]
    from allones import cli
    from workloads import WORKLOADS

    digest, runs = hashlib.sha256(), 0
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for run in solve_runs(cli, WORKLOADS, args.seeds):
                # repr quotes each field, so no two run lists hash the same bytes
                digest.update(repr(run).encode())
                runs += 1
        finally:
            os.chdir(home)
    print(f"{digest.hexdigest()}  {runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
