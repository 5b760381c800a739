#!/usr/bin/env python3
"""Counts the lines of code under src/: the size ROADMAP item 4 tracks.

A line counts when it is not blank and, after its indentation, does not
begin with `//`. Every other line counts, including one that begins with
`*` (a dereference such as `*out = std::move(result);`): the sources use
no block comments. Prints the total, then the count of each directory
under src/.

Usage: python3 scripts/src_lines.py [repo root, default: this script's repo]
"""

import collections
import pathlib
import sys


def count_lines(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip() and not line.lstrip().startswith("//"))


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)
    src = root / "src"
    per_dir = collections.Counter()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cc"):
            per_dir[path.parent.relative_to(src).as_posix()] += count_lines(path)
    print(f"src/ {sum(per_dir.values())}")
    for directory, lines in sorted(per_dir.items()):
        print(f"  src/{directory} {lines}")


if __name__ == "__main__":
    main()
