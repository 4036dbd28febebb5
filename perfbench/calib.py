"""Machine-speed calibration for timings taken on a shared, drifting host.

On a shared 2-CPU VM the speed of pure-Python code swings by 1.5-1.8x
within seconds, as other tenants load the host, while the ratio between two
different fixed loops timed side by side stays within about 7%.  So the
benchmark times ``work`` (a fixed mix of the solve path's kinds of work)
between solves and scales each solve's wall time by ``REF_S`` over the
calibration times around it: a timing then reads as milliseconds at the
reference speed, not at whatever speed the host had during that second.

``work`` uses nothing from ``allones``, so a change to the program never
changes the calibration.
"""

from __future__ import annotations

import argparse
import json
import random
from time import perf_counter

# About the median time of one ``work()`` call on a 2-CPU x86_64 VM with
# Python 3.11.7 (16.5 ms over 300 calls); scaled timings read as time at the
# speed that gives.
REF_S = 0.017

_rng = random.Random(20240425)
_ROWS = [_rng.getrandbits(320) for _ in range(300)]
_COLS = [_rng.getrandbits(360) for _ in range(15)]
# CLI-like calls per work(): build an argument parser, parse, read a file.
_CALLS = 5
_TEXT = "\n".join(f"e {_rng.randrange(500)} {_rng.randrange(500)}" for _ in range(2000))


def work() -> int:
    """One fixed unit of work: GF(2) row elimination on 320-bit ints, a
    2**15-step Gray-code walk with popcounts, text parsing plus JSON, and
    per-call CLI work (argparse, a file read), in roughly the proportions
    of the solve path."""
    rows = list(_ROWS)
    r = 0
    for c in range(320):
        mask = 1 << c
        for i in range(r, len(rows)):
            if rows[i] & mask:
                rows[r], rows[i] = rows[i], rows[r]
                break
        else:
            continue
        prow = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i] & mask:
                rows[i] ^= prow
        r += 1
    cur = 0
    best = 1 << 30
    for k in range(1, 1 << 15):
        cur ^= _COLS[(k & -k).bit_length() - 1]
        w = cur.bit_count()
        if w < best:
            best = w
    edges = [tuple(int(x) for x in line.split()[1:]) for line in _TEXT.splitlines()]
    size = 0
    for _ in range(_CALLS):
        with open(__file__, encoding="utf-8") as fh:
            size += len(fh.read())
        size += len(_parser().parse_args(["solve", "x.txt", "--output", "json"]).output)
    return r + best + size + len(json.dumps({"edges": edges}))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="calib")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("file")
    solve.add_argument("--output", choices=("text", "json"), default="text")
    solve.add_argument("--exact-limit", type=int, default=16, metavar="M")
    solve.add_argument("--check", action="store_true")
    bench = sub.add_parser("bench", help="run a corpus")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--sizes", default="10,20")
    return parser


def measure() -> float:
    """Seconds for one ``work()`` call."""
    t0 = perf_counter()
    work()
    return perf_counter() - t0
