#!/usr/bin/env python3
"""Builds bench_e2e from this source tree and runs one workload.

Usage, from the repository root:

  python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/e2e and the run's scratch files (durable
checkpoints) to .bench_build/scratch, both under the repository root. The
first call configures and compiles (about 30 s on 4 cores); later calls only
check that the binary is up to date.

bench_e2e's own report goes to stderr. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics holds
the end_to_end metrics named in BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1, the instrumented run). Exits non-zero without that line
when the build or the run fails, and non-zero after it when a correctness
check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def call(command, timeout):
    """Runs `command` with its output on stderr; returns its exit status."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(command)}")
        return 1


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if call(configure, timeout=300) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return call(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                 "-j", jobs], timeout=800) == 0


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    names = metric_names(args.trace)
    if not build():
        log("build failed")
        return 1
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--scratch_dir={SCRATCH_DIR}"]
    if args.trace:
        command.append("--traced")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stdout)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        report = json.loads(lines[-1])
        group = report["per_layer" if args.trace else "metrics"]
        metrics = {name: {"value": group[name]["value"],
                          "unit": group[name]["unit"]} for name in names}
    except (IndexError, ValueError, KeyError) as error:
        log(f"bench_e2e exited {proc.returncode} without a usable report "
            f"({error!r})")
        return 1
    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
