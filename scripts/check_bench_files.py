#!/usr/bin/env python3
"""Checks that the benches reproduce the committed BENCH_*.json files.

Runs every bench that writes a committed BENCH file, with its default
arguments, in a temporary directory (so the repository's own copies stay
untouched), then compares each committed BENCH_*.json with the fresh one as
parsed JSON. Every key of every file must match exactly, types included:
the benches report simulated quantities only, never host time.

    python3 scripts/check_bench_files.py build

Prints the first differing path of each file that differs and exits 1.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHES = ["cache_capacity", "net_degradation", "obs_overhead", "scale_striping",
           "mcast_fanout", "chaos_soak"]


def first_difference(want, got, path):
    """The path of the first value where `got` differs from `want`, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            where = f"{path}.{key}"
            if key not in got:
                return f"{where}: missing from the fresh run"
            if key not in want:
                return f"{where}: not in the committed file"
            diff = first_difference(want[key], got[key], where)
            if diff is not None:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path}: {len(want)} entries committed, {len(got)} fresh"
        for i, (w, g) in enumerate(zip(want, got)):
            diff = first_difference(w, g, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if type(want) is not type(got) or want != got:
        return f"{path}: committed {want!r}, fresh {got!r}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="CMake build tree holding bench/<name>")
    args = parser.parse_args()

    committed = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))
    if not committed:
        print("check_bench_files: no committed BENCH_*.json files", file=sys.stderr)
        return 1
    failed = False
    with tempfile.TemporaryDirectory(prefix="check_bench_files.") as fresh_dir:
        for bench in BENCHES:
            binary = os.path.abspath(os.path.join(args.build_dir, "bench", bench))
            run = subprocess.run([binary], cwd=fresh_dir, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print(f"check_bench_files: {bench} exited {run.returncode}\n{run.stderr}",
                      file=sys.stderr)
                return 1
        for path in committed:
            name = os.path.basename(path)
            fresh = os.path.join(fresh_dir, name)
            if not os.path.exists(fresh):
                print(f"{name}: no bench wrote it")
                failed = True
                continue
            with open(path) as want_file, open(fresh) as got_file:
                want, got = json.load(want_file), json.load(got_file)
            diff = first_difference(want, got, "$")
            if diff is not None:
                print(f"{name}: {diff}")
                failed = True
    if failed:
        return 1
    print(f"check_bench_files: {len(committed)} BENCH files reproduce")
    return 0


if __name__ == "__main__":
    sys.exit(main())
