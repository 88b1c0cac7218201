#!/usr/bin/env python3
"""Checks that bench_e2e repeats within the bounds BENCHMARK.json sets.

Usage, from the repository root:

  python3 bench/e2e/repeat_check.py [--runs 5] [--seconds 15]
      [--workloads conv_compute,fc_exchange] [--seed 1] [--out runs.json]

Runs two sets of --runs runs of every workload through bench/e2e/run.py
(one build), alternating which set goes first in each round. Every run has
its own seed: run i of set A uses --seed + i, of set B --seed + --runs + i.
For each (workload, end-to-end metric) it prints both sets' median and
quartiles, the spread (quartile distance over the median) of each set and
of both sets pooled, and how much worse the second median is than the
first, each as a share, and the verdicts:

  spread  the pooled spread within a third of the bound (setup_s
          excepted: only its median is bounded)
  drift   the second median is not worse than the first by more than the
          bound

Exits non-zero when any verdict fails. --out keeps every run's metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: a correctness check "
                           "failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    # runs[set][workload] = list of {metric: value}
    runs = [{w: [] for w in workloads} for _ in range(2)]
    for i in range(args.runs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for which in order:
            for workload in workloads:
                seed = args.seed + which * args.runs + i
                metrics = run_once(workload, seed, seconds)
                runs[which][workload].append(metrics)
                print(f"round {i + 1} set {'AB'[which]} {workload} "
                      f"seed {seed}: "
                      + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                      flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "seed": args.seed,
                       "sets": runs}, f, indent=1)

    ok = True
    header = (f"{'workload':17} {'metric':20} {'A median':>12} "
              f"{'A q1..q3':>23} {'A sprd':>7} {'B median':>12} "
              f"{'B q1..q3':>23} {'B sprd':>7} {'pooled':>7} {'drift':>7} "
              f"{'bound':>6}  verdict")
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = summarize([r[name] for r in runs[0][workload]])
            b = summarize([r[name] for r in runs[1][workload]])
            pooled = summarize([r[name] for s in runs for r in s[workload]])
            worse = (b[0] - a[0]) / a[0] if a[0] else 0.0
            if metric["better"] == "higher":
                worse = -worse
            bound = metric["bound"]
            spread_ok = name == "setup_s" or pooled[3] <= bound / 3
            drift_ok = worse <= bound
            ok = ok and spread_ok and drift_ok
            verdict = " ".join([
                "spread-ok" if spread_ok else "SPREAD",
                "drift-ok" if drift_ok else "DRIFT"])
            print(f"{workload:17} {name:20} {a[0]:12.6g} "
                  f"{a[1]:11.5g}..{a[2]:<11.5g} {a[3]:7.2%} {b[0]:12.6g} "
                  f"{b[1]:11.5g}..{b[2]:<11.5g} {b[3]:7.2%} {pooled[3]:7.2%} "
                  f"{worse:7.2%} "
                  f"{bound:6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
