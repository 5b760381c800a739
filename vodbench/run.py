#!/usr/bin/env python3
"""Builds and runs the VOD benchmark (vodbench/vodbench.cc).

Run from the root of a source checkout:

    python3 vodbench/run.py --workload uniform --seed 1 --seconds 30 --trace 0

The first run configures and builds the server libraries and the vodbench
program with CMake into $CARGO_TARGET_DIR (default .bench_build) under the
checkout; later runs only re-check the build. Build output goes to stderr.
The program's JSON result is checked for shape and printed as the last line
of stdout.
With --trace 1 the frame attribution and Chrome trace of the first replay are
written to <build dir>/vodbench-trace/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 150  # headroom past --seconds for set-up and the last replay


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    binary = os.path.join(build_dir, "vodbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):  # not configured yet
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", "3", "--target", "vodbench"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: {' '.join(step)}: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: {' '.join(step)} failed ({done.returncode})", file=sys.stderr)
            return None
    return binary if os.path.exists(binary) else None


def well_formed(result, trace):
    if not isinstance(result, dict):
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return False
    if result["attempted"] < 1 or not isinstance(result["metrics"], dict):
        return False
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        print(f"run.py: metrics {sorted(result['metrics'])} != {sorted(wanted)}",
              file=sys.stderr)
        return False
    return all(isinstance(m.get("value"), (int, float)) and isinstance(m.get("unit"), str)
               for m in result["metrics"].values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "vodbench")
    binary = build(build_dir)
    if binary is None:
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "vodbench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-dir", trace_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=args.seconds + RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: vodbench timed out", file=sys.stderr)
        return 3
    if done.returncode != 0:
        print(f"run.py: vodbench exited {done.returncode}", file=sys.stderr)
        return 3
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not well_formed(result, args.trace):
        print("run.py: vodbench printed no well-formed result", file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
