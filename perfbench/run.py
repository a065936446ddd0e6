#!/usr/bin/env python3
"""Builds and runs the serve-loop benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout configures and builds perfbench/ (the library
sources under src/ plus the benchmark binary, Release) into .bench_build/
(or $CARGO_TARGET_DIR when set); later runs only re-check the build. Build
output goes to standard error. The binary's standard output is passed
through; its last line is the result JSON. The traced run also writes its
spans to spans-<workload>-seed<n>.csv in the build directory.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# CARGO_TARGET_DIR, when set, names the checkout's build directory.
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["bj-polarop", "bj-tgoa", "hz-polarop-shard4", "hz-polarop-hourly"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "service_harness.h")):
        sys.exit("perfbench: the library sources (src/) are not in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        command += ["--spans", os.path.join(
            BUILD_ROOT, "spans-%s-seed%d.csv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
