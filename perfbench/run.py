"""Benchmark for ``allones solve FILE --output json``, from instance text to a
checked JSON answer.

    python3 perfbench/run.py --workload small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

The package is imported from ``src/`` of the checkout, as the tests do;
nothing needs installing.

Each solve calls ``allones.cli.main([...])`` in this process with stdout
captured, so interpreter start-up (the same for every input) does not drown
the small workload.  Load is a closed loop: one caller, no threads, no
worker pool.  Inputs are generated from ``--seed`` into instance files
before timing starts; whole passes over them repeat until the next pass
would overrun ``--seconds``.  Every answer is checked afterwards by
``check.py``, which shares no code with ``allones``.

Timings are scaled to a reference machine speed (see ``calib.py``): the
host this runs on is shared, and its speed drifts by up to 1.8x within
seconds.  The human-readable lines also print them as measured.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under timing wrappers on the solve path's module
attributes (see ``spans.py``) and prints the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  Exit
code 1 means some answer was rejected; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calib
from check import check_answer
from gen import all_plus_off, grid_edges
from spans import ROOT as ROOT_SPAN
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"

# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 9

# Seconds of solving between two calibrations inside a pass.
CAL_EVERY_S = 0.15

# Run in a fresh interpreter: import the package and solve one tiny
# instance, timed from just before the import; then calibrate three times.
SETUP_CHILD = """\
import contextlib, io, statistics, sys, time
t0 = time.perf_counter()
import allones.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = allones.cli.main(sys.argv[1:])
t = time.perf_counter() - t0
import calib
print(t, rc, statistics.median(calib.measure() for _ in range(3)))
"""

END_TO_END = {
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "presses_mean": "presses",
}

PER_LAYER = {
    "cli.main.self_ms": "ms",
    "instance_io.parse_instance.self_ms": "ms",
    "instance_io.bytes_per_solve": "bytes",
    "lamps.build_system.self_ms": "ms",
    "lamps.build_system.calls_per_solve": "count",
    "gf2.solve.self_ms": "ms",
    "gf2.solve.calls_per_solve": "count",
    "gf2.rank.self_ms": "ms",
    "gf2.rank.calls_per_solve": "count",
    "gf2.eliminations_per_solve": "count",
    "gf2.column_echelon_grouped.self_ms": "ms",
    "approx.solve_approx.self_ms": "ms",
    "approx.greedy_assign.self_ms": "ms",
    "approx.unpermute.self_ms": "ms",
    "exact.exact_by_nullspace.self_ms": "ms",
    "exact.exact_by_nullspace.calls_per_solve": "count",
    "exact.candidates_per_solve": "count",
    "exact.ns_per_candidate": "ns",
    "input.n_mean": "vertices",
    "input.edges_mean": "edges",
    "output.feasible_share": "share",
    "output.m_mean": "count",
    "output.exact_share": "share",
    "trace.solve_ms": "ms",
    "trace.overhead_pct": "%",
}


class Passes:
    """Repeated passes over the inputs: per-solve and per-pass times, and the
    distinct answers seen for each input.  With a tracer, the timing
    wrappers are in place during each pass and removed after it.

    ``calib.measure()`` runs before each pass, after it, and between solves
    once ``CAL_EVERY_S`` of solving has gone by.  ``times`` and
    ``pass_times`` are wall times scaled by ``calib.REF_S`` over the mean of
    the two calibrations around each solve; ``wall_times`` keeps them as
    measured."""

    def __init__(self, main, argvs: list[list[str]], tracer: Tracer | None = None) -> None:
        self.main = main if tracer is None else tracer.wrap(ROOT_SPAN, main)
        self.argvs = argvs
        self.tracer = tracer
        self.times: list[float] = []
        self.wall_times: list[float] = []
        self.pass_times: list[float] = []
        self.answers: list[dict[tuple[object, str], int]] = [{} for _ in argvs]

    @property
    def solves_per_s(self) -> float:
        """Solves in one pass over the median pass's (scaled) time."""
        return len(self.argvs) / statistics.median(self.pass_times)

    def run_pass(self) -> None:
        main, wall, tracer = self.main, self.wall_times, self.tracer
        first = len(wall)
        cals = [calib.measure()]
        marks = [first]  # solves done when each calibration ran
        if tracer is not None:
            tracer.install()
        try:
            since_cal = 0.0
            for idx, argv in enumerate(self.argvs):
                if since_cal >= CAL_EVERY_S:
                    cals.append(calib.measure())
                    marks.append(len(wall))
                    since_cal = 0.0
                if tracer is not None:
                    tracer.solve = len(wall)
                buf = io.StringIO()
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # an exception is a failed answer, not a crash
                    rc = "exception: " + traceback.format_exc(limit=-1).strip()
                dt = perf_counter() - t0
                wall.append(dt)
                since_cal += dt
                seen = self.answers[idx]
                key = (rc, buf.getvalue())
                seen[key] = seen.get(key, 0) + 1
        finally:
            if tracer is not None:
                tracer.remove()
        cals.append(calib.measure())
        marks.append(len(wall))
        for k in range(1, len(cals)):
            scale = 2 * calib.REF_S / (cals[k - 1] + cals[k])
            self.times.extend(t * scale for t in wall[marks[k - 1]:marks[k]])
        self.pass_times.append(sum(self.times[first:]))


def run_passes(phases: list[Passes], seconds: float) -> None:
    """Closed loop: one pass of each phase in turn, until the next round would
    overrun ``seconds``.  Alternating phases share any drift in machine speed."""
    elapsed = 0.0
    rounds = 0
    while True:
        start = perf_counter()
        for phase in phases:
            phase.run_pass()
        elapsed += perf_counter() - start
        rounds += 1
        if elapsed + elapsed / rounds > seconds:
            return


def check_passes(workload, inputs, phases: list[Passes]) -> tuple[int, int, list[dict | None]]:
    """(attempted, failed, first answer per input); prints the first problems."""
    attempted = failed = 0
    first: list[dict | None] = [None] * len(inputs)
    reported = 0
    for phase in phases:
        attempted += len(phase.times)
        for idx, seen in enumerate(phase.answers):
            inst, ref = inputs[idx]
            for (rc, text), count in seen.items():
                problems, ans = check_answer(inst, ref, workload.exact_limit, rc, text)
                if first[idx] is None:
                    first[idx] = ans
                if problems:
                    failed += count
                    if reported < 5:
                        reported += 1
                        print(f"REJECTED input {idx} (n={inst.n}): {'; '.join(problems)}",
                              file=sys.stderr)
                        if isinstance(rc, str):
                            print(rc, file=sys.stderr)
    return attempted, failed, first


def setup_seconds(warm_file: Path) -> tuple[float, float]:
    """Median over fresh interpreters of import + one warm-up solve: scaled
    to the calibration's reference speed, and as measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, "solve", str(warm_file), "--output", "json"],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[1] != "0":
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip() or proc.stdout}")
        wall.append(float(fields[0]))
        scaled.append(wall[-1] * calib.REF_S / float(fields[2]))
    return statistics.median(scaled), statistics.median(wall)


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(timed: Passes, first: list[dict | None], setup_s: float, rss_mb: float) -> dict:
    sols = [a["sol"] for a in first if a and a.get("feasible") and isinstance(a.get("sol"), int)]
    values = {
        "solves_per_s": timed.solves_per_s,
        "solve_ms_p50": statistics.median(timed.times) * 1000,
        "solve_ms_p90": p90(timed.times) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "presses_mean": statistics.fmean(sols) if sols else 0.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(tracer: Tracer, plain: Passes, traced: Passes, inputs, sizes, first) -> dict:
    solves = len(traced.times)
    self_s, calls = tracer.layer_totals()
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "self_ms":
            values[name] = self_s.get(layer, 0.0) * 1000 / solves
        elif stat == "calls_per_solve":
            values[name] = calls.get(layer, 0) / solves
    values["gf2.eliminations_per_solve"] = (calls.get("gf2.solve", 0) + calls.get("gf2.rank", 0)) / solves
    # every exact call walks 2**m candidates, m as the answer reports it
    n_inputs = len(inputs)
    candidates = 0
    for span in tracer.spans:
        if span[0] == "exact.exact_by_nullspace":
            ans = first[span[4] % n_inputs]
            if ans and isinstance(ans.get("m"), int):
                candidates += 1 << ans["m"]
    values["exact.candidates_per_solve"] = candidates / solves
    exact_ns = self_s.get("exact.exact_by_nullspace", 0.0) * 1e9
    values["exact.ns_per_candidate"] = exact_ns / candidates if candidates else 0.0
    answers = [a or {} for a in first]
    values["instance_io.bytes_per_solve"] = statistics.fmean(sizes)
    values["input.n_mean"] = statistics.fmean(inst.n for inst, _ in inputs)
    values["input.edges_mean"] = statistics.fmean(len(inst.edges) for inst, _ in inputs)
    values["output.feasible_share"] = sum(bool(a.get("feasible")) for a in answers) / n_inputs
    values["output.m_mean"] = statistics.fmean(a.get("m", 0) for a in answers)
    values["output.exact_share"] = sum("opt" in a for a in answers) / n_inputs
    root_s = sum(end - start for name, start, end, _, _ in tracer.spans if name == ROOT_SPAN)
    values["trace.solve_ms"] = root_s * 1000 / solves
    values["trace.overhead_pct"] = (1 - traced.solves_per_s / plain.solves_per_s) * 100
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "allones").is_dir():
        print(f"error: no allones package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        from allones import approx, cli, exact
    except ImportError as exc:
        print(f"error: cannot import allones from {SRC}: {exc}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    inputs = workload.inputs(args.seed)
    gen_s = perf_counter() - t0
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        argvs, sizes = [], []
        for idx, (inst, _) in enumerate(inputs):
            path = work / f"{idx:04d}.txt"
            text = inst.render()
            path.write_text(text, encoding="utf-8")
            sizes.append(len(text.encode()))
            argvs.append(["solve", str(path), "--output", "json",
                          "--exact-limit", str(workload.exact_limit)])
        warm = work / "warmup.txt"
        warm.write_text(all_plus_off(25, grid_edges(5, 5)).render(), encoding="utf-8")

        # The benchmark's own objects (edge lists above all) would otherwise be
        # traversed by every full collection the program triggers.
        gc.collect()
        gc.freeze()
        setup_s, setup_wall_s = setup_seconds(warm)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["solve", str(warm), "--output", "json"])

        if not args.trace:
            timed = Passes(cli.main, argvs)
            phases = [timed]
            run_passes(phases, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            tracer = Tracer({"cli": cli, "approx": approx, "exact": exact})
            plain = Passes(cli.main, argvs)
            traced = Passes(cli.main, argvs, tracer)
            phases = [plain, traced]
            run_passes(phases, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, first = check_passes(workload, inputs, phases)
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"  {len(inputs)} inputs generated in {gen_s:.2f} s (not part of setup_s)")
    if not args.trace:
        metrics = end_to_end(timed, first, setup_s, rss_mb)
        print(f"  {len(timed.times)} timed solves in {len(timed.pass_times)} passes,"
              f" {sum(timed.wall_times):.2f} s of wall time")
        print(f"  as measured, unscaled: solve_ms_p50 {statistics.median(timed.wall_times) * 1000:.4g},"
              f" solve_ms_p90 {p90(timed.wall_times) * 1000:.4g}, setup_s {setup_wall_s:.4g};"
              f" scale to {calib.REF_S * 1000:.3g} ms calibration: median"
              f" {statistics.median(s / w for s, w in zip(timed.times, timed.wall_times)):.4g}")
    else:
        metrics = per_layer(tracer, plain, traced, inputs, sizes, first)
        print(f"  {len(plain.times)} untraced and {len(traced.times)} traced solves")
        trace_file = WORK / f"trace-{workload.name}.jsonl"
        tracer.dump(trace_file)
        print(f"  {len(tracer.spans)} spans written to {trace_file.relative_to(REPO)}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_share':42s} {failed / attempted:14.6g} share")
    print(f"  checker: {'PASS' if failed == 0 else 'FAIL'}, {failed} of {attempted} answers rejected")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so setup_s and peak_rss_mb stay per workload."""
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
