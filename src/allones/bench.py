"""The `bench` command: random corpus, invariant assertions, ratio stats, timings.

Every instance in the corpus is solved and checked against the solver's
guarantees (feasibility of the press set, both weight bounds, the
per-part majority bound, and agreement with the exact oracles on small
instances), so a bench run doubles as a correctness sweep.  Only `allones
bench` loads this module and json, and it loads the CLI only when it runs.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections.abc import Sequence

from .approx import solve_approx
from .exact import PRESS_LIMIT, exact_by_nullspace, exact_by_press_enumeration
from .generators import GEN_LIMIT, SplitMix64, gen_random_mixed
from .instance_io import _int
from .lamps import _clip, is_all_on, simulate_presses

DEFAULT_ORACLE_LIMIT = 12

P_VALUES = (0.2, 0.5, 0.8)
VIOLATION_KINDS = (
    "feasibility",
    "rankBound",
    "mixedBound",
    "partBound",
    "optSandwich",
    "oracleAgreement",
)


def check_instance(
    n: int, p: float, seed: int, oracle_limit: int
) -> tuple[bool, float | None, float, list[str]]:
    """Solve one random instance and check it.

    Returns (feasible, sol/opt or None, solve seconds, violations); the
    ratio is set only when the exact oracles ran and agreed.
    """
    inst = gen_random_mixed(n, p, seed)
    violations: list[str] = []
    t0 = time.perf_counter()
    _, sol = solve_approx(inst)
    solve_sec = time.perf_counter() - t0
    if sol is None:
        if n <= oracle_limit and exact_by_press_enumeration(inst) is not None:
            violations.append("oracleAgreement")
        return False, None, solve_sec, violations
    dec = sol.decomposition
    if not is_all_on(simulate_presses(inst, sol.press)):
        violations.append("feasibility")
    if sol.weight > dec.r:
        violations.append("rankBound")
    if 2 * sol.weight > dec.bound_mixed_x2:
        violations.append("mixedBound")
    press = sol.press.bits
    for part in dec.parts[1:]:
        if 2 * (press & part).bit_count() > part.bit_count():
            violations.append("partBound")
            break
    ratio = None
    if n <= oracle_limit:
        by_press = exact_by_press_enumeration(inst)
        # the affine set the CLI walks: the solution set of the system
        by_null = exact_by_nullspace(dec.gamma, dec.basis)
        if by_press is None or by_null is None or by_press[0] != by_null[0]:
            violations.append("oracleAgreement")
        else:
            opt = by_press[0]
            ratio = sol.weight / opt if opt else 1.0
            if not (dec.g1 <= opt <= sol.weight and 2 * sol.weight <= n + opt):
                violations.append("optSandwich")
    return True, ratio, solve_sec, violations


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_vals:
        return 0.0
    idx = max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[idx]


def run_bench(
    sizes: Sequence[int],
    trials: int,
    seed: int,
    oracle_limit: int,
) -> dict:
    """Run the corpus and aggregate.

    The returned dict has a "config"/"results" portion that is a
    deterministic function of the arguments, and a separate "timing"
    portion (wall-clock, varies run to run).
    """
    rng = SplitMix64(seed)
    # instance seeds are drawn size by size, then trial by trial
    checks = [
        check_instance(n, P_VALUES[t % len(P_VALUES)], rng.next_u64(), oracle_limit)
        for n in sizes
        for t in range(trials)
    ]

    violations = dict.fromkeys(VIOLATION_KINDS, 0)
    for _, _, _, found in checks:
        for kind in found:
            violations[kind] += 1
    feasible = sum(ok for ok, _, _, _ in checks)
    ratios = sorted(ratio for _, ratio, _, _ in checks if ratio is not None)
    times_ms = sorted(sec * 1000.0 for _, _, sec, _ in checks)
    ratio_stats: dict | None = None
    if ratios:
        ratio_stats = {
            "count": len(ratios),
            "mean": round(sum(ratios) / len(ratios), 6),
            "max": round(ratios[-1], 6),
            "p50": round(_percentile(ratios, 50), 6),
            "p90": round(_percentile(ratios, 90), 6),
        }
    return {
        "config": {
            "sizes": list(sizes),
            "trials": trials,
            "seed": seed,
            "pValues": list(P_VALUES),
            "oracleLimit": oracle_limit,
        },
        "results": {
            "instances": len(checks),
            "feasible": feasible,
            "infeasible": len(checks) - feasible,
            "oracleChecked": len(ratios),
            "violations": violations,
            "solOverOpt": ratio_stats,
        },
        "timing": {
            "solveMs": {
                "p50": round(_percentile(times_ms, 50), 3),
                "p90": round(_percentile(times_ms, 90), 3),
                "p99": round(_percentile(times_ms, 99), 3),
                "max": round(times_ms[-1], 3) if times_ms else 0.0,
            }
        },
    }


def render_report(report: dict) -> str:
    """Human-readable form of a run_bench report."""
    cfg = report["config"]
    res = report["results"]
    tim = report["timing"]["solveMs"]
    lines = [
        f"sizes {','.join(map(str, cfg['sizes']))}  trials {cfg['trials']}"
        f"  seed {cfg['seed']}",
        f"instances: {res['instances']} (feasible {res['feasible']},"
        f" infeasible {res['infeasible']})",
    ]
    bad = {k: v for k, v in res["violations"].items() if v}
    lines.append(
        "violations: " + (", ".join(f"{k}={v}" for k, v in bad.items()) if bad else "none")
    )
    ratio = res["solOverOpt"]
    if ratio:
        lines.append(
            f"sol/opt over {ratio['count']} oracle-checked instances:"
            f" mean {ratio['mean']}  p50 {ratio['p50']}  p90 {ratio['p90']}"
            f"  max {ratio['max']}"
        )
    lines.append(
        f"solve ms: p50 {tim['p50']}  p90 {tim['p90']}  p99 {tim['p99']}  max {tim['max']}"
    )
    return "\n".join(lines) + "\n"


def _cmd_bench(args) -> int:
    from .cli import EXIT_OK, EXIT_USAGE, _fail, _out_of_range

    try:
        sizes = [_int(tok) for tok in args.sizes.split(",")]
    except ValueError:
        return _fail(f"--sizes {_clip(args.sizes)!r} is not a comma-separated integer list")
    if min(sizes) < 1:
        return _fail(f"--sizes {_clip(args.sizes)!r} lists a size below 1")
    if bad := _out_of_range("--trials", args.trials, 1):
        return _fail(bad)
    # G(n, p) draws once per vertex pair, as gen gnp does, and the solve
    # holds n-bit masks: each instance costs about n squared, and every
    # size is drawn --trials times
    if args.trials * sum(n + n * (n - 1) // 2 for n in sizes) > GEN_LIMIT:
        return _fail(
            f"--sizes {_clip(args.sizes)!r} with --trials {_clip(args.trials, 20)}"
            f" has more than {GEN_LIMIT} vertices plus vertex pairs"
        )
    if bad := _out_of_range("--oracle-limit", args.oracle_limit, 0, PRESS_LIMIT):
        return _fail(bad)
    report = run_bench(sizes, args.trials, args.seed, oracle_limit=args.oracle_limit)
    if args.output == "json":
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(render_report(report))
    return EXIT_USAGE if any(report["results"]["violations"].values()) else EXIT_OK


def _add_bench(sub) -> None:
    p = sub.add_parser("bench", help="run the random corpus with invariant checks")
    p.add_argument("--sizes", default="8,10,12", help="comma-separated vertex counts")
    p.add_argument("--trials", type=_int, default=100, help="instances per size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--oracle-limit",
        type=_int,
        default=DEFAULT_ORACLE_LIMIT,
        metavar="N",
        help="compare against the exact oracles when n is at most N"
        f" (default {DEFAULT_ORACLE_LIMIT}, at most {PRESS_LIMIT})",
    )
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bench)
