"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workload desk_run ...]

Runs `perfbench/run.py --trace 0` once per seed and workload, one process at
a time, and prints for each metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, next to the bound in BENCHMARK.json.  A spread above a third of the
bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
                status = 1
                continue
            result = json.loads(last)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / statistics.median(vals)
            bound = bounds.get(name)
            mark = " <-- above bound/3" if bound is not None and share > bound / 3 else ""
            print(f"  {workload:17s} {name:12s} median {statistics.median(vals):10.4g} "
                  f"q1 {q1:10.4g} q3 {q3:10.4g} spread {share:6.3f} bound {bound}{mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
