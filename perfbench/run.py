#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload echo-64 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is built from source with
dune, in release mode, into .bench_build/ at the checkout root, then
perfbench/bench.exe runs one workload in this process's place: it
prints one line per metric and, as the last line of standard output, the
result as a JSON object. The exit code is non-zero when the build fails,
when any output was wrong, or when the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("echo-64", "echo-8k", "store-8k")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    # Keep every build output, dune's cache included, inside the checkout.
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(ROOT, ".bench_build", "cache"),
    )
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "./perfbench/bench.exe",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0 or not os.path.isfile(EXE):
        sys.exit(f"perfbench: build failed (exit {done.returncode})")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == RESULT_KEYS
        and isinstance(result["correct"], bool)
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
        and isinstance(result["failed"], int)
        and isinstance(result["metrics"], dict)
        and all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.exit(done.returncode)
    if not lines or not valid_result(lines[-1]):
        sys.exit("perfbench: the last output line is not a valid result")


if __name__ == "__main__":
    main()
