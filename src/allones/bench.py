"""Random-corpus benchmark: invariant assertions, ratio stats, timings.

Every instance in the corpus is solved and checked against the solver's
guarantees (feasibility of the press set, both weight bounds, the
per-part majority bound, and agreement with the exact oracles on small
instances), so a bench run doubles as a correctness sweep.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

from .approx import solve_approx
from .exact import exact_by_nullspace, exact_by_press_enumeration
from .gf2 import mat_vec
from .instance_io import SplitMix64, gen_random_mixed
from .lamps import build_system, is_all_on, simulate_presses

P_VALUES = (0.2, 0.5, 0.8)
VIOLATION_KINDS = (
    "feasibility",
    "rankBound",
    "mixedBound",
    "partBound",
    "optSandwich",
    "oracleAgreement",
)
DEFAULT_ORACLE_LIMIT = 12


def check_instance(task: tuple[int, float, int, int]) -> dict:
    """Solve one random instance and report violations, ratio and timing."""
    n, p, seed, oracle_limit = task
    inst = gen_random_mixed(n, p, seed)
    violations: list[str] = []
    t0 = time.perf_counter()
    _, sol = solve_approx(inst)
    solve_sec = time.perf_counter() - t0
    record = {
        "n": n,
        "p": p,
        "seed": seed,
        "feasible": sol is not None,
        "sol": None,
        "m": None,
        "opt": None,
        "ratio": None,
        "solveSec": solve_sec,
        "violations": violations,
    }
    if sol is None:
        if n <= oracle_limit and exact_by_press_enumeration(inst) is not None:
            violations.append("oracleAgreement")
        return record
    dec = sol.decomposition
    cert = sol.certificate
    record["sol"] = sol.weight
    record["m"] = cert.m
    a, b = build_system(inst)
    if mat_vec(a, sol.press) != b or not is_all_on(simulate_presses(inst, sol.press)):
        violations.append("feasibility")
    if sol.weight > cert.r:
        violations.append("rankBound")
    if 2 * sol.weight > n + cert.g1 - cert.g0:
        violations.append("mixedBound")
    press = sol.press.bits
    for part in dec.parts[1:]:
        if 2 * (press & part).bit_count() > part.bit_count():
            violations.append("partBound")
            break
    if n <= oracle_limit:
        by_press = exact_by_press_enumeration(inst)
        # the affine set the CLI walks: the solution set of the system
        by_null = exact_by_nullspace(dec.gamma, dec.basis)
        if by_press is None or by_null is None or by_press[0] != by_null[0]:
            violations.append("oracleAgreement")
        else:
            opt = by_press[0]
            record["opt"] = opt
            record["ratio"] = sol.weight / opt if opt else 1.0
            if not (cert.g1 <= opt <= sol.weight and 2 * sol.weight <= n + opt):
                violations.append("optSandwich")
    return record


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
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    workers: int = 1,
) -> dict:
    """Run the corpus and aggregate; results are worker-count independent.

    The returned dict has a deterministic "config"/"results" portion and a
    separate "timing" portion (wall-clock, varies run to run).
    """
    rng = SplitMix64(seed)
    tasks = []
    for n in sizes:
        for t in range(trials):
            tasks.append((n, P_VALUES[t % len(P_VALUES)], rng.next_u64(), oracle_limit))
    if workers > 1 and len(tasks) > 1:
        try:
            from multiprocessing import Pool

            with Pool(workers) as pool:
                records = pool.map(check_instance, tasks)
        except OSError:  # restricted environments: fall back, results identical
            records = [check_instance(t) for t in tasks]
    else:
        records = [check_instance(t) for t in tasks]

    violations = {kind: 0 for kind in VIOLATION_KINDS}
    for rec in records:
        for kind in rec["violations"]:
            violations[kind] += 1
    feasible = sum(1 for rec in records if rec["feasible"])
    ratios = sorted(rec["ratio"] for rec in records if rec["ratio"] is not None)
    times_ms = sorted(rec["solveSec"] * 1000.0 for rec in records)
    ratio_stats: Optional[dict] = None
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
            "workers": workers,
        },
        "results": {
            "instances": len(records),
            "feasible": feasible,
            "infeasible": len(records) - feasible,
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


def total_violations(report: dict) -> int:
    return sum(report["results"]["violations"].values())


def render_report(report: dict) -> str:
    """Human-readable form of a run_bench report."""
    cfg = report["config"]
    res = report["results"]
    tim = report["timing"]["solveMs"]
    lines = [
        f"sizes {','.join(map(str, cfg['sizes']))}  trials {cfg['trials']}"
        f"  seed {cfg['seed']}  workers {cfg['workers']}",
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
