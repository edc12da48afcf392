"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 [--workload gh-dense ...]

Runs the benchmark command of BENCHMARK.json once per seed 1..runs for each
workload, one process at a time, and prints per workload and metric the
median and the interquartile range (statistics.quantiles, n=4) as a share of
the median, next to a third of the metric's bound.  The last line is the
same table as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for wl in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{wl} seed {seed}: {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        out[wl] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            out[wl][name] = {"median": med, "spread": spread, "values": vals}
            print(f"{wl:<10} {name:<12} median {med:12.6g}  spread {spread:8.4f}"
                  f"  bound/3 {bounds[name] / 3:.4f}", flush=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
