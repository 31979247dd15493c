#!/usr/bin/env python3
"""Build the serving binaries and the benchmark, then run one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload ea-bound --seed 1 --seconds 10 --trace 0

The last line of standard output is the benchmark's JSON result.  Build
output and diagnostics go to standard error.  Exits non-zero, printing no
result, when the repository is not there to build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
TARGETS = [
    "./perfbench/bench.exe",
    "./bin/emts_serve_cli.exe",
    "./bin/emts_router_cli.exe",
]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    for path in ("dune-project", "bin/dune", "lib/serve/dune", "BENCHMARK.json"):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a checkout of the repository")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    # No shared dune cache: the build reads and writes only the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
        env={**os.environ, "DUNE_CACHE": "disabled"},
    )
    if build.returncode != 0:
        fail("build failed", build.returncode)

    # Own process group, so a timeout also stops the serving processes.
    proc = subprocess.Popen(
        [
            "./_build/default/perfbench/bench.exe",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"bench.exe exited with {proc.returncode}", 1)

    sys.stdout.write(out)


if __name__ == "__main__":
    main()
