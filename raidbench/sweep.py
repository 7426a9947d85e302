#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median,
quartiles and spread (quartile distance over median) as a Markdown table.

Usage, from the repository root:

    python3 raidbench/sweep.py [--workloads a,b] [--seeds N] [--first S]
                               [--seconds T] [--trace 0|1]

The run length defaults to `run_seconds` of BENCHMARK.json. It builds the
benchmark once (release, into $CARGO_TARGET_DIR or raidbench/target) and
then runs the binary directly, one seed after another.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")
WORKLOADS = ["fig5_trojans", "scale256_raidx", "zipf_cached", "andrew_cfs"]


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(target, "release", "raidbench")


def run(binary, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed\n{out.stdout}{out.stderr}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first", type=int, default=1)
    with open(BENCHMARK) as f:
        run_seconds = json.load(f)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    binary = build()
    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for w in args.workloads.split(","):
        runs = [run(binary, w, s, args.seconds, args.trace)
                for s in range(args.first, args.first + args.seeds)]
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {w} | {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.3f} |", flush=True)


if __name__ == "__main__":
    main()
