#!/usr/bin/env python3
"""Steadiness check of the serve-loop benchmark.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]

The workloads default to those of BENCHMARK.json. Runs every chosen
workload once per seed, each run a fresh process, in alternating workload
order (reversed on every other seed), with the run_seconds of
BENCHMARK.json. Then runs the first seed of each workload
again and checks that it prints the same pair digest. For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, next to the metric's bound; and
for every workload the share of failed operations of each run, which must
be the same in every run. Exits 1 when a spread exceeds its bound, a
failure share differs, a digest differs or a run fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d failed (exit %d):\n%s"
                 % (workload, seed, done.returncode, done.stdout))
    result = json.loads(lines[-1])
    digest = None
    for line in lines:
        match = re.match(r"digest\s+([0-9a-f]+)", line)
        if match:
            digest = match.group(1)
    return result, digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    # run.py rejects names it does not know.
    workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]

    results = {w: [] for w in workloads}
    digests = {}
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result, digest = run(workload, seed, seconds)
            results[workload].append(result)
            if i == 0:
                digests[workload] = digest
            print("%-18s seed %-3d %s" % (workload, seed, json.dumps(result)),
                  flush=True)

    ok = True
    for workload in workloads:
        _, digest = run(workload, args.first_seed, seconds)
        same = digest == digests[workload]
        ok = ok and same
        print("%-18s seed %d rerun digest %s: %s"
              % (workload, args.first_seed, digest,
                 "same" if same else "DIFFERENT (was %s)" % digests[workload]))

    print("\n%-18s %-15s %12s %12s %12s %8s %6s"
          % ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for workload in workloads:
        runs = results[workload]
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            bound = metric["bound"]
            within = spread <= bound
            ok = ok and within
            print("%-18s %-15s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s"
                  % (workload, metric["name"], q1, median, q3, 100 * spread,
                     100 * bound,
                     "" if spread <= bound / 3 else
                     ("above a third of the bound" if within else "ABOVE BOUND")))
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        same_share = all(f * shares[0][1] == shares[0][0] * a for f, a in shares)
        ok = ok and same_share and all(r["correct"] for r in runs)
        print("%-18s failed/attempted %s -> %s" % (
            workload, " ".join("%d/%d" % s for s in shares),
            "one share %.6f" % (shares[0][0] / shares[0][1]) if same_share
            else "SHARES DIFFER"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
