"""Tests for the benchmark's generator, checker and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import run
from check import check_answer, reference, toggle_masks
from gen import Inst, all_plus_off, gnp_edges, grid_edges, mixed, tree_edges
from spans import Tracer
from workloads import EXACT_CORANKS, WORKLOADS

sys.path.insert(0, str(run.SRC))
from allones import approx, cli, exact  # noqa: E402


def solve_cli(tmp_path: Path, inst: Inst, exact_limit: int = 16) -> tuple[int, str]:
    path = tmp_path / "inst.txt"
    path.write_text(inst.render(), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["solve", str(path), "--output", "json", "--exact-limit", str(exact_limit)])
    return rc, buf.getvalue()


def brute_force_feasible(inst: Inst) -> bool:
    masks = toggle_masks(inst)
    target = (1 << inst.n) - 1
    on = int(inst.on[::-1], 2)
    for press in range(1 << inst.n):
        state = on
        for v in range(inst.n):
            if press >> v & 1:
                state ^= masks[v]
        if state == target:
            return True
    return False


def test_reference_matches_brute_force_and_cli(tmp_path):
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 10)
        inst = mixed(n, gnp_edges(n, rng.choice((0.2, 0.5, 0.8)), rng), rng)
        rank, feasible = reference(inst)
        assert feasible == brute_force_feasible(inst)
        rc, out = solve_cli(tmp_path, inst)
        assert json.loads(out)["r"] == rank
        assert check_answer(inst, (rank, feasible), 16, rc, out)[0] == []


def test_gnp_edges_are_simple_and_dense_enough():
    rng = random.Random(7)
    assert gnp_edges(6, 1.0, rng) == [(w, v) for v in range(1, 6) for w in range(v)]
    assert gnp_edges(6, 0.0, rng) == []
    edges = gnp_edges(400, 0.5, rng)
    assert all(0 <= w < v < 400 for w, v in edges)
    assert len(set(edges)) == len(edges)
    assert abs(len(edges) - 0.5 * 400 * 399 / 2) < 1000


DOCTORED = {
    "dropped press": lambda a: {**a, "press": a["press"][1:], "sol": a["sol"] - 1},
    "sol off by one": lambda a: {**a, "sol": a["sol"] + 1},
    "wrong rank": lambda a: {**a, "r": a["r"] - 1, "m": a["m"] + 1, "boundRank": a["r"] - 1},
    "opt above sol": lambda a: {**a, "opt": a["sol"] + 1},
    "opt missing": lambda a: {k: v for k, v in a.items() if k != "opt"},
    "mixed bound": lambda a: {**a, "boundMixedNumerator": a["boundMixedNumerator"] + 1},
    "g0 inflated": lambda a: {**a, "g0": a["g0"] + a["sol"]},
    "says infeasible": lambda a: {"feasible": False, "r": a["r"], "m": a["m"]},
}


@pytest.mark.parametrize("doctor", DOCTORED)
def test_doctored_feasible_answer_is_caught(tmp_path, doctor):
    inst = all_plus_off(25, grid_edges(5, 5))
    ref = reference(inst)
    rc, out = solve_cli(tmp_path, inst)
    assert check_answer(inst, ref, 16, rc, out)[0] == []
    bad = json.dumps(DOCTORED[doctor](json.loads(out)))
    assert check_answer(inst, ref, 16, rc, bad)[0]


def test_doctored_infeasible_answer_and_exit_codes_are_caught(tmp_path):
    inst = Inst(3, [(0, 1), (1, 2)], "---", "100")
    ref = reference(inst)
    assert ref == (2, False)
    rc, out = solve_cli(tmp_path, inst)
    assert rc == 2 and check_answer(inst, ref, 16, rc, out)[0] == []
    assert check_answer(inst, ref, 16, 0, out)[0]
    assert check_answer(inst, ref, 16, 2, out.replace('"r": 2', '"r": 1'))[0]
    assert check_answer(inst, ref, 16, 2, "Traceback")[0]
    assert check_answer(inst, ref, 16, "exception: boom", "")[0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_inputs_repeat_for_a_seed(name):
    workload = WORKLOADS[name]
    first = [(i.render(), ref) for i, ref in workload.inputs(11)]
    assert first == [(i.render(), ref) for i, ref in workload.inputs(11)]
    assert first != [(i.render(), ref) for i, ref in workload.inputs(12)]
    if name in ("sparse", "gnp"):
        # feasible/infeasible pairs, then one more feasible input (odd_one_out)
        assert [ref[1] for _, ref in first] == [True, False] * (len(first) // 2) + [True]


def test_exact_workload_hits_its_corank_targets():
    inputs = WORKLOADS["exact"].inputs(5)
    assert sorted(inst.n - ref[0] for inst, ref in inputs) == sorted(EXACT_CORANKS)


def test_traced_self_times_sum_to_the_root_span(tmp_path):
    rng = random.Random(2)
    insts = [mixed(12, gnp_edges(12, 0.4, rng), rng) for _ in range(4)]
    insts.append(all_plus_off(200, tree_edges(200, rng)))
    argvs = []
    for i, inst in enumerate(insts):
        path = tmp_path / f"{i}.txt"
        path.write_text(inst.render(), encoding="utf-8")
        argvs.append(["solve", str(path), "--output", "json"])
    tracer = Tracer({"cli": cli, "approx": approx, "exact": exact})
    passes = run.Passes(cli.main, argvs, tracer)
    run.run_passes([passes], 0.0)
    assert cli.solve_approx is approx.solve_approx  # wrappers are gone again
    self_s, calls = tracer.layer_totals()
    root = sum(e - s for name, s, e, _, _ in tracer.spans if name == run.ROOT_SPAN)
    assert calls[run.ROOT_SPAN] == len(passes.times) == len(insts)
    assert sum(self_s.values()) == pytest.approx(root)
    assert calls["gf2.solve"] + calls.get("gf2.rank", 0) >= len(insts)
    assert {s[4] for s in tracer.spans} == set(range(len(insts)))


def test_solve_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    cals = iter([0.01, 0.02, 0.03, 0.04, 0.05])
    monkeypatch.setattr(run.calib, "measure", lambda: next(cals))
    monkeypatch.setattr(run, "CAL_EVERY_S", 0.0)  # calibrate before every solve
    passes = run.Passes(lambda argv: 0, [["a"], ["b"], ["c"]])
    passes.run_pass()
    # calibrations: before the pass, before each solve, after the pass
    brackets = [(0.02, 0.03), (0.03, 0.04), (0.04, 0.05)]
    expected = [w * 2 * run.calib.REF_S / (lo + hi) for w, (lo, hi) in zip(passes.wall_times, brackets)]
    assert passes.times == pytest.approx(expected)
    assert passes.pass_times == pytest.approx([sum(expected)])


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
