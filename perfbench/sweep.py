"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10                    # every workload
    python3 perfbench/sweep.py --workloads gnp --seeds 1-5 --trace 1
    python3 perfbench/sweep.py --seeds 1-10 --record seed      # append to trajectory.json

For every workload and metric it prints the median of the per-run values
and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which is
what each end-to-end bound in BENCHMARK.json is compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", help="append the medians to trajectory.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    failed = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, check=False,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"{result['failed']} of {result['attempted']} rejected;", " ".join(
                      f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("" if spread <= bound / 3 else "  WIDE")
            print(f"  {workload:7s} {name:42s} median {med:14.6g}  spread {spread:.4f}{flag}")

    if args.record:
        points = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
        points.append({
            "label": args.record,
            "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, {platform.machine()}",
            "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
            "seconds": args.seconds,
            "trace": args.trace,
            "medians": {w: {k: v["median"] for k, v in ms.items()} for w, ms in summary.items()},
            "spreads": {w: {k: v["spread"] for k, v in ms.items()} for w, ms in summary.items()},
        })
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
