#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and report, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]

Per-run results are appended to perfbench/out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs("perfbench/out", exist_ok=True)
    log = open("perfbench/out/steady.jsonl", "a")
    worst = 0.0
    for name in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            log.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            log.flush()
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect run", file=sys.stderr)
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
        print(f"{name}: {args.runs} runs")
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            share = spread / m["bound"]
            worst = max(worst, share)
            print(f"  {m['name']:<16} median {med:12.6g} {m['unit']:<6} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                  f"bound {m['bound']:.2f} ({share:.2f} of it)")
    print(f"largest spread, as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
