#!/usr/bin/env python3
"""Build and run the dpu-sim benchmark.

    python3 dpubench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator from src/ plus the
`dpubench` program into .bench_build/ (incremental after the first
run), runs one benchmark process, checks that it printed exactly the
metrics BENCHMARK.json declares, and passes its output through. The
last stdout line is the result JSON; the exit code is non-zero on any
build, correctness, determinism or reporting failure. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "dpubench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"dpubench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    configure = ["cmake", "-S", os.path.join(ROOT, "dpubench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", "4"]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed")
    return os.path.join(BUILD, "dpubench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    want = expected_metrics(args.trace)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            os.path.dirname(BUILD),
            f"spans-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")

    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout)
        fail("no result line")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(done.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
