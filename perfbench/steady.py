#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--first-seed N]

Runs run.py with --trace 0 once per (set, seed, workload): 10 seeds from N
(default 1), two sets, every workload of BENCHMARK.json, interleaving the
sets so host drift lands in both alike. Then prints for every end-to-end
metric of every workload each set's median and its quartile spread
((Q3 - Q1) / median, from statistics.quantiles(n=4)), next to the metric's
bound from BENCHMARK.json, and how far the second set's median moved from
the first. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
SETS = 2


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}  # (set, workload, metric) -> [value per seed]
    for i in range(SEEDS):
        seed = args.first_seed + i
        for s in range(SETS):
            for w in workloads:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    sys.exit("run failed: " + " ".join(cmd))
                result = json.loads(done.stdout.strip().splitlines()[-1])
                for name, metric in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(metric["value"])
                print("set %d seed %d %-13s %s" % (s, seed, w, " ".join(
                    "%s=%.4g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))),
                    flush=True)

    print("\n%-13s %-18s %6s  %s" % ("workload", "metric", "bound",
                                     "per set: median spread [drift vs set 0]"))
    for w in workloads:
        for name, bound in bounds.items():
            cells = []
            base = statistics.median(values[(0, w, name)])
            for s in range(SETS):
                v = values[(s, w, name)]
                med = statistics.median(v)
                cells.append("%.4g %.3f [%+.3f]" % (med, spread(v), med / base - 1))
            print("%-13s %-18s %6.3f  %s" % (w, name, bound, " | ".join(cells)))


if __name__ == "__main__":
    main()
