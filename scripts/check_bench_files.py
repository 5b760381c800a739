#!/usr/bin/env python3
"""Checks that the benches reproduce the committed BENCH_*.json files.

Runs every bench that writes a committed BENCH file, with its default
arguments, in a temporary directory (so the repository's own copies stay
untouched), then compares each committed BENCH_*.json with the fresh one as
parsed JSON. Every key of every file must match exactly, types included:
the benches report simulated quantities only, never host time.

It also runs the figure and ablation benches whose printed tables are
pinned in scripts/bench_stdout/<bench>.txt, and requires each one's stdout
to match its pin byte for byte.

    python3 scripts/check_bench_files.py build

Prints the first differing path of each file (or line of each table) that
differs and exits 1.
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
STDOUT_PINS = os.path.join(REPO, "scripts", "bench_stdout")
PINNED_STDOUT = ["fig08_admission_1_5mbps", "fig09_admission_6mbps", "abl_cscan",
                 "abl_fragmentation", "abl_read_size", "abl_zbr"]


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


def first_line_difference(want, got):
    """The first line where stdout `got` differs from the pin `want`, or None."""
    want_lines, got_lines = want.splitlines(keepends=True), got.splitlines(keepends=True)
    for i, (w, g) in enumerate(zip(want_lines, got_lines)):
        if w != g:
            return f"line {i + 1}: pinned {w!r}, fresh {g!r}"
    if len(want_lines) != len(got_lines):
        return f"{len(want_lines)} lines pinned, {len(got_lines)} fresh"
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
        for bench in PINNED_STDOUT:
            binary = os.path.abspath(os.path.join(args.build_dir, "bench", bench))
            run = subprocess.run([binary], cwd=fresh_dir, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
            if run.returncode != 0:
                print(f"check_bench_files: {bench} exited {run.returncode}\n"
                      f"{run.stderr.decode(errors='replace')}", file=sys.stderr)
                return 1
            with open(os.path.join(STDOUT_PINS, bench + ".txt"), "rb") as pin:
                want = pin.read()
            if run.stdout != want:
                diff = first_line_difference(want.decode(), run.stdout.decode())
                print(f"{bench} stdout: {diff}")
                failed = True
    if failed:
        return 1
    print(f"check_bench_files: {len(committed)} BENCH files and {len(PINNED_STDOUT)} "
          "pinned tables reproduce")
    return 0


if __name__ == "__main__":
    sys.exit(main())
