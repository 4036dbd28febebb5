"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the random corpus is built once and shared.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import oracles
from allones.approx import (
    decompose,
    greedy_assign,
    solve_approx,
    solve_from_decomposition,
)
from allones.exact import exact_by_nullspace, exact_by_press_enumeration
from allones.gf2 import BitVec, column_echelon_grouped, mat_vec, solve
from allones.instance_io import (
    SplitMix64,
    gen_grid,
    gen_random_gnp,
    gen_random_mixed,
    render_instance,
)
from allones.lamps import Instance, SwitchType, build_system, is_all_on, simulate_presses

CORPUS_SIZE = 5000
CORPUS_SEED = 77
P_CYCLE = (0.2, 0.5, 0.8)


def _report(num: int, violations: list, detail: str) -> None:
    status = "FAIL" if violations else "PASS"
    extra = f"; first violation: {violations[0]}" if violations else ""
    print(f"[criterion {num}] {status}: {detail}{extra}")
    assert not violations, f"criterion {num}: {len(violations)} violations, e.g. {violations[:3]}"


@pytest.fixture(scope="module")
def corpus():
    """Solve and oracle-check the whole random corpus once."""
    rng = SplitMix64(CORPUS_SEED)
    records = []
    t0 = time.perf_counter()
    for idx in range(CORPUS_SIZE):
        n = 4 + idx % 9
        p = P_CYCLE[idx % 3]
        inst = gen_random_mixed(n, p, rng.next_u64())
        a, b = build_system(inst)
        _, lin = solve(a, b)
        rec = {"inst": inst, "a": a, "b": b, "lin": lin, "sol": None, "dec": None,
               "u": None, "opt_press": exact_by_press_enumeration(inst),
               "opt_null": exact_by_nullspace(*lin) if lin is not None else None}
        if lin is not None:
            gamma, eta = lin
            dec = column_echelon_grouped(eta, gamma)
            rec["dec"] = dec
            rec["sol"] = solve_from_decomposition(dec)
            rec["u"] = greedy_assign(dec)[1]
        records.append(rec)
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_oracle_sandwich(corpus):
    records, elapsed = corpus
    violations = []
    feasible = 0
    for idx, rec in enumerate(records):
        sol = rec["sol"]
        if sol is None:
            continue
        feasible += 1
        inst, a, b = rec["inst"], rec["a"], rec["b"]
        cert = sol.certificate
        n, w = inst.n, sol.weight
        if mat_vec(a, sol.press) != b:
            violations.append(f"#{idx}: press does not solve the system")
        if w > cert.r:
            violations.append(f"#{idx}: sol {w} > r {cert.r}")
        if 2 * w > n + cert.g1 - cert.g0:
            violations.append(f"#{idx}: 2*sol > n + g1 - g0")
        opt_press = rec["opt_press"]
        if opt_press is None:
            violations.append(f"#{idx}: solver feasible but press oracle found nothing")
            continue
        opt = opt_press[0]
        if not cert.g1 <= opt <= w:
            violations.append(f"#{idx}: g1 {cert.g1} <= opt {opt} <= sol {w} broken")
        if 2 * w > n + opt:
            violations.append(f"#{idx}: 2*sol {2 * w} > n + opt {n + opt}")
    if elapsed >= 120.0:
        violations.append(f"corpus took {elapsed:.1f}s (budget 120s)")
    _report(
        1,
        violations,
        f"{len(records)} instances ({feasible} feasible) checked in {elapsed:.1f}s",
    )


def test_criterion_2_oracle_agreement(corpus):
    records, _ = corpus
    violations = []
    both = 0
    for idx, rec in enumerate(records):
        consistent = rec["lin"] is not None
        by_press, by_null = rec["opt_press"], rec["opt_null"]
        if (by_press is None) == consistent:
            violations.append(f"#{idx}: press-oracle feasibility disagrees with solve")
        if (by_null is None) == consistent:
            violations.append(f"#{idx}: nullspace-oracle feasibility disagrees with solve")
        if by_press is not None and by_null is not None:
            both += 1
            if by_press[0] != by_null[0]:
                violations.append(
                    f"#{idx}: opt {by_press[0]} (press) != {by_null[0]} (nullspace)"
                )
    _report(2, violations, f"both oracles agree on {both} feasible instances")


def test_criterion_3_per_part_majority_bound(corpus):
    records, _ = corpus
    violations = []
    parts_checked = 0
    for idx, rec in enumerate(records):
        dec, u = rec["dec"], rec["u"]
        if dec is None:
            continue
        for i in range(1, dec.m + 1):
            part = dec.parts[i]
            ones = (u.bits & part).bit_count()
            size = part.bit_count()
            parts_checked += 1
            if 2 * ones > size:
                violations.append(f"#{idx}: part {i} has {ones} ones of {size}")
    _report(3, violations, f"{parts_checked} greedy parts within the majority bound")


def test_criterion_4_transform_invariance(corpus):
    records, _ = corpus
    violations = []
    checked = 0
    for idx, rec in enumerate(records):
        if rec["lin"] is None or rec["dec"] is None:
            continue
        gamma, eta = rec["lin"]
        dec = rec["dec"]
        if eta.rows > 10:
            continue
        before = {gamma.bits}
        for vec in eta.packed_rows:
            before |= {v ^ vec for v in before}
        after = {dec.gamma.bits}
        for vec in dec.basis.packed_rows:
            after |= {v ^ vec for v in after}
        if sorted(v.bit_count() for v in before) != sorted(v.bit_count() for v in after):
            violations.append(f"#{idx}: weight multisets differ")
        checked += 1
        if checked >= 600:
            break
    if checked < 500:
        violations.append(f"only {checked} instances with m <= 10 (need 500)")
    _report(4, violations, f"weight multisets identical on {checked} instances")


def test_criterion_5_classic_grid_fixture():
    violations = []
    inst = gen_grid(5, 5)
    a, b = build_system(inst)
    _, (gamma, eta) = solve(a, b)
    r = 25 - eta.rows
    if r != 23:
        violations.append(f"rank {r} != 23")
    if eta.rows != 2:
        violations.append(f"m {eta.rows} != 2")
    by_null = exact_by_nullspace(gamma, eta)
    opt = by_null[0]
    # independently recompute opt with the dense oracle before trusting it
    dense_opt = oracles.min_weight_solution_f2(
        *oracles.system_from_graph(25, oracles.grid_edges(5, 5), [True] * 25, [0] * 25)
    )[0]
    if opt != dense_opt:
        violations.append(f"oracle disagreement: {opt} vs dense {dense_opt}")
    if opt != 15:
        violations.append(f"opt {opt} != 15")
    dec = column_echelon_grouped(eta, gamma)
    sol = solve_from_decomposition(dec)
    if sol.weight > 23:
        violations.append(f"sol {sol.weight} > rank bound 23")
    if 2 * sol.weight > 25 + opt:
        violations.append(f"2*sol {2 * sol.weight} > 25 + opt {25 + opt}")
    _report(5, violations, f"5x5 grid: rank 23, m 2, opt {opt}, sol {sol.weight}")


def test_criterion_6_all_on_needs_nothing():
    violations = []
    rng = SplitMix64(4242)
    for trial in range(300):
        base = gen_random_mixed(4 + trial % 9, P_CYCLE[trial % 3], rng.next_u64())
        inst = Instance(base.n, base.edges, base.switches, BitVec.ones(base.n))
        _, sol = solve_approx(inst)
        if sol is None or sol.weight != 0:
            violations.append(f"trial {trial}: weight {None if sol is None else sol.weight}")
    _report(6, violations, "300 fully-lit instances all solved with zero presses")


def test_criterion_7_infeasibility_detection(tmp_path):
    violations = []
    inst = Instance(1, [], (SwitchType.SIGMA,))
    if solve_approx(inst)[1] is not None:
        violations.append("solver returned a solution")
    if exact_by_press_enumeration(inst) is not None:
        violations.append("press oracle returned a solution")
    path = tmp_path / "stuck.ao"
    path.write_text(render_instance(inst))
    res = subprocess.run(
        [sys.executable, "-m", "allones", "solve", str(path)],
        capture_output=True,
        text=True,
    )
    if res.returncode != 2:
        violations.append(f"CLI exit code {res.returncode} != 2")
    _report(7, violations, "solver, press oracle and CLI all report infeasible")


def test_criterion_8_performance():
    violations = []
    inst = gen_random_gnp(1000, 0.01, seed=5)  # corank 2 for this seed
    t0 = time.perf_counter()
    _, sol = solve_approx(inst)
    full = time.perf_counter() - t0
    assert sol is not None
    if full >= 10.0:
        violations.append(f"full solve took {full:.2f}s (budget 10s)")
    _, dec = decompose(inst)
    t0 = time.perf_counter()
    reps = 10
    for _ in range(reps):
        cached = solve_from_decomposition(dec)
    greedy = (time.perf_counter() - t0) / reps
    assert cached == sol
    ratio = full / greedy if greedy > 0 else float("inf")
    if ratio < 50.0:
        violations.append(f"greedy re-solve only {ratio:.1f}x faster (need 50x)")
    _report(
        8,
        violations,
        f"n=1000 solve {full * 1000:.0f}ms, cached greedy {greedy * 1000:.2f}ms"
        f" ({ratio:.0f}x)",
    )


def test_criterion_9_deterministic_json(tmp_path):
    violations = []
    path = tmp_path / "grid.ao"
    path.write_text(render_instance(gen_grid(5, 5)))
    cmd = [sys.executable, "-m", "allones", "solve", str(path), "--output", "json",
           "--exact-limit", "8"]

    def run(threads):
        env = dict(os.environ, ALLONES_THREADS=threads)
        return subprocess.run(cmd, capture_output=True, text=True, env=env)

    outs = [run("1").stdout, run("1").stdout, run("8").stdout]
    if outs[0] != outs[1]:
        violations.append("two identical runs differ")
    if outs[0] != outs[2]:
        violations.append("output depends on ALLONES_THREADS")
    payload = json.loads(outs[0])
    if payload.get("opt") != 15:
        violations.append(f"grid opt in JSON is {payload.get('opt')}")
    _report(9, violations, "byte-identical JSON across runs and thread settings")
