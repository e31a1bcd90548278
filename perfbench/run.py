#!/usr/bin/env python3
"""Builds and runs the ppsim benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a ppsim source tree. The first run configures and
builds perfbench/ (Release) into .bench_build/perfbench at the root of the
tree; later runs only bring that build up to date. The benchmark binary's
table and its closing JSON line are passed through to stdout; build output
goes to stderr. The metric names the binary prints are checked against
BENCHMARK.json before the result is passed on.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ppsim_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "cmake/PpsimOptions.cmake"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no ppsim source tree here ({needed} is missing)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per tree, should runs ever overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "ppsim_perfbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    tmp = os.path.join(BUILD, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace,
             "--tmp", tmp],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"the benchmark binary exited with {proc.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == "1")
    if sorted(result["metrics"]) != sorted(want):
        sys.stderr.write(proc.stdout)
        fail("printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(want) ^ set(result['metrics']))}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
