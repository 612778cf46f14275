#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe from source
with dune into .bench_build (or $CARGO_TARGET_DIR when set), then runs
it; the benchmark's JSON result is the last line of standard output.
With --trace 1 the spans of the traced run are written to
<build dir>/perfbench-spans/<workload>-seed<N>.tsv.  Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("read-large", "read-small-lowent", "oltp-journaled")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the repository root (dune-project and lib/ not found)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/bench.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    cmd = [os.path.join(build_dir, "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-dir", spans_dir]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    if run.returncode != 0:
        sys.exit(f"run.py: bench.exe exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("run.py: bench.exe printed no result")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
