#!/usr/bin/env python3
"""Checks a vodbench result against the pinned simulated values.

The simulated values of a seeded run (every metric except the host-time
ones: the host_* timings of a --trace 1 run, cpu_us_per_stream_s and setup_s
of a --trace 0 run) are deterministic: they come from the first replay, so
--seconds does not change them. scripts/vodbench_layers.json pins them for
seed 1 of each workload: the per-layer values under the workload's name, the
end-to-end ones under "<workload>/end_to_end". Which of the two a result
holds is read from the result itself. A change to the simulated system must
update that file in the same commit.

    python3 vodbench/run.py --workload zipf --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 | python3 scripts/check_vodbench_layers.py zipf

Counts must match exactly, other values within 1e-9 relative. With --update
the result replaces the workload's pinned values instead.
"""

import argparse
import json
import math
import os
import sys

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "vodbench_layers.json")
REL_TOL = 1e-9
HOST_TIME = {"cpu_us_per_stream_s", "setup_s"}  # a --trace 0 run's host-time values


def simulated(result):
    """The result's simulated metrics, as {name: {value, unit}}."""
    return {name: metric for name, metric in result["metrics"].items()
            if not name.startswith("host_") and name not in HOST_TIME}


def mismatches(want, got):
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{name}: missing from the result")
            continue
        if name not in want:
            problems.append(f"{name}: not pinned")
            continue
        expected, actual = want[name]["value"], got[name]["value"]
        if want[name]["unit"] == "count":
            equal = expected == actual
        else:
            equal = math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0)
        if not equal:
            problems.append(f"{name}: pinned {expected!r}, got {actual!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--update", action="store_true",
                        help="write the result's values into the pinned file")
    args = parser.parse_args()

    lines = sys.stdin.read().strip().splitlines()
    if not lines:
        print("check_vodbench_layers: no result on stdin", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    # A --trace 0 run reports its host time as setup_s; a --trace 1 run has host_* names.
    key = f"{args.workload}/end_to_end" if "setup_s" in result["metrics"] else args.workload
    got = simulated(result)
    pinned = {}
    if os.path.exists(PINNED):
        with open(PINNED) as pinned_file:
            pinned = json.load(pinned_file)

    if args.update:
        pinned[key] = got
        with open(PINNED, "w") as pinned_file:
            json.dump(pinned, pinned_file, indent=2, sort_keys=True)
            pinned_file.write("\n")
        print(f"check_vodbench_layers: pinned {len(got)} values for {key}")
        return 0

    if key not in pinned:
        print(f"check_vodbench_layers: no pinned values for {key}", file=sys.stderr)
        return 2
    problems = mismatches(pinned[key], got)
    for problem in problems:
        print(f"check_vodbench_layers: {key}: {problem}", file=sys.stderr)
    if problems:
        print("check_vodbench_layers: the simulated system changed; if that is intended, "
              "re-pin with --update", file=sys.stderr)
        return 1
    print(f"check_vodbench_layers: {key}: {len(got)} values match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
