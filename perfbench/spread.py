#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload scale_k16 --seeds 1-10

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per end-to-end metric, the median of the runs and
the distance between the first and third quartile as a share of that
median, next to the metric's bound. Exits 1 if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stdout + out.stderr, file=sys.stderr)
            sys.exit(1)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: correctness check failed" % seed, file=sys.stderr)
            sys.exit(1)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d done" % seed, file=sys.stderr)

    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print("%-34s median %14.6f  spread %.4f  bound %.2f  %s  %s" % (
            m["name"], median, spread, m["bound"],
            "ok" if spread <= m["bound"] / 3 else "WIDE",
            " ".join("%.6g" % v for v in vals)))


if __name__ == "__main__":
    main()
