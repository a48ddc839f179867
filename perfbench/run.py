#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload table1_k4 --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (the MARS libraries from
src/ plus the benchmark's trial runner) into .bench_build/ as a Release
build; later runs rebuild only what changed. Every run executes the
benchmark's own metric-math tests before measuring. The benchmark binary
prints its report; its last stdout line is the JSON result, whose metric
names and units must be BENCHMARK.json's end_to_end (--trace 0) or
per_layer (--trace 1) list. Exits non-zero, without a result, when the
sources are missing or the build or tests fail, and non-zero when the run
fails a check or prints another metric set.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("table1_k4", "mars_frontier_k4", "scale_k16")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def step(cmd):
    """Run a build or test step, its output on stderr."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        fail("step failed (exit %d): %s" % (result.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MARS sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j4"])
    step([os.path.join(BUILD, "perfbench_test"), "--gtest_brief=1"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        sys.exit(result.returncode)
    check_metric_set(result.stdout, args.trace)


def check_metric_set(stdout, trace):
    """Fail unless the result names exactly BENCHMARK.json's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    lines = stdout.strip().splitlines()
    got = {name: metric["unit"] for name, metric in
           json.loads(lines[-1])["metrics"].items()} if lines else {}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        fail("printed metrics differ from BENCHMARK.json: %s" % diff[:8])


if __name__ == "__main__":
    main()
