#!/usr/bin/env python3
"""Splits vodbench's host CPU time by server layer (src/<layer>/).

Builds vodbench/ with gprof instrumentation (-pg, linked -no-pie) in its own
build directory, passing the flags as CMake cache variables so that no file
under vodbench/ changes, runs one workload on seed 1 (the seed
scripts/vodbench_layers.json pins), and reads the gmon.out the run leaves
behind:

    python3 scripts/host_profile.py --workload remote --seconds 30

gprof's own flat profile cannot do this split: GCC emits each coroutine body
as a separate `<function> [clone .actor]` symbol, which gprof leaves out and
books to the symbol before it. Here every PC-histogram bin goes to the `nm`
text symbol that contains it, coroutine bodies included. A symbol's layer is
the src/<layer>/ directory of the file that defines it. Library code
instantiated for a server type (std::priority_queue<crsim::Engine::Key>::pop,
a std::function handler around a crnet lambda) goes to the layer of the
first server namespace in its name, and code that names none (std::sort on a
vector of durations) is split over its callers' layers by gmon.out's call
counts. vodbench's replay loop and simulated viewers (Replay::Run, Watch and
Play) get the `vodbench` row. The rest of vodbench.cc -- rig, catalog and
viewer set-up, the speed probe, result collection and sorting, teardown --
is the `harness`, and so is any function that only the harness calls
(the catalog's index builder, the rig's constructors). main() does not
count as such a caller: the replay loop is inlined into it. The harness is
reported as a share of all samples and left out of the layer shares, which
add up to the simulation's samples. gmon.out's histogram covers only the
program's own text, so time in shared libraries (libc's malloc, libstdc++'s
tree rebalancing) is in no row. Layer times are per replay: a faster tree
fits more replays into --seconds.

--root profiles another checkout's vodbench/ (the build directory then
defaults to <root>/.bench_build/profile), for parent/change comparisons.
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
TOP_SYMBOLS = 15  # symbols listed by self time
SIMULATION_CODE = re.compile(r"^\(anonymous namespace\)::Replay::(Run|Watch|Play)\b")


def build(root, build_dir):
    """Configures and builds the instrumented vodbench; returns its path."""
    subprocess.run(["cmake", "-S", os.path.join(root, "vodbench"), "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DCMAKE_CXX_FLAGS=-pg",
                    "-DCMAKE_EXE_LINKER_FLAGS=-pg -no-pie"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "3", "--target", "vodbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "vodbench")


def namespace_layers(root):
    """{namespace: layer}: the src/<layer>/ whose headers open it most often."""
    counts = collections.Counter()
    src = os.path.join(root, "src")
    for layer in sorted(os.listdir(src)):
        directory = os.path.join(src, layer)
        if not os.path.isdir(directory):
            continue
        for name in os.listdir(directory):
            if name.endswith(".h"):
                with open(os.path.join(directory, name)) as header:
                    for ns in re.findall(r"^namespace (\w+) \{", header.read(), re.M):
                        counts[(ns, layer)] += 1
    layers = {}
    for (ns, layer), _ in counts.most_common():
        layers.setdefault(ns, layer)
    return layers


def text_symbols(binary):
    """Sorted [(address, demangled name, defining file)] of the text symbols."""
    out = subprocess.run(["nm", "-C", "--defined-only", "-l", binary], check=True,
                         capture_output=True, text=True).stdout
    symbols = {}
    for line in out.splitlines():
        head, _, where = line.partition("\t")
        fields = head.split(" ", 2)
        if len(fields) == 3 and fields[1] in "tTwW":
            symbols.setdefault(int(fields[0], 16), (fields[2], where.rsplit(":", 1)[0]))
    return sorted((address, name, where) for address, (name, where) in symbols.items())


def read_gmon(path):
    """(histogram records, {(from_pc, self_pc): count}) of a 64-bit gmon.out."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"gmon":
        raise SystemExit(f"{path}: not a gmon.out file")
    pos = 20
    hists = []
    arcs = collections.Counter()
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == 0:  # PC histogram
            low, high, bins, rate = struct.unpack_from("<QQII", data, pos)
            pos += 40  # plus 15 bytes of dimension name and its abbreviation
            counts = struct.unpack_from(f"<{bins}H", data, pos)
            pos += 2 * bins
            hists.append((low, high, rate, counts))
        elif tag == 1:  # call-graph arc
            from_pc, self_pc, count = struct.unpack_from("<QQI", data, pos)
            pos += 20
            arcs[(from_pc, self_pc)] += count
        else:
            raise SystemExit(f"{path}: unexpected record tag {tag}")
    return hists, arcs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="remote")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--root", default=HERE, help="checkout to profile")
    parser.add_argument("--build-dir", help="default: <root>/.bench_build/profile")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    build_dir = os.path.abspath(args.build_dir or os.path.join(root, ".bench_build", "profile"))

    binary = build(root, build_dir)
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    gmon = os.path.join(run_dir, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    result = subprocess.run([binary, "--workload", args.workload, "--seed", str(SEED),
                             "--seconds", str(args.seconds), "--trace", "0"],
                            cwd=run_dir, check=True, capture_output=True, text=True)
    sys.stderr.write(result.stderr)

    symbols = text_symbols(binary)
    starts = [address for address, _, _ in symbols]
    hists, arcs = read_gmon(gmon)

    def symbol_at(pc):
        i = bisect.bisect_right(starts, pc) - 1
        return i if i >= 0 else None

    samples = collections.Counter()  # symbol index -> samples
    rate = 0
    for low, high, rate, counts in hists:
        # glibc's bins are a whole number of bytes (4), but the header's
        # range falls a little short of bins * 4, so (high - low) / bins
        # would drift by a whole bin over a large program.
        width = max(1, round((high - low) / len(counts)))
        for b, count in enumerate(counts):
            if count:
                i = symbol_at(low + b * width + width // 2)
                if i is not None:
                    samples[i] += count

    # Each symbol's layer, or None where only its callers can tell.
    ns_layer = namespace_layers(root)
    ns_pattern = re.compile(r"\b(" + "|".join(map(re.escape, ns_layer)) + r")::")
    src_prefix = os.path.join(root, "src") + os.sep
    bench_prefix = os.path.join(root, "vodbench") + os.sep

    def own_layer(i):
        _, name, where = symbols[i]
        if where.startswith(src_prefix):
            return where[len(src_prefix):].split(os.sep, 1)[0]
        if where.startswith(bench_prefix):
            return "vodbench" if SIMULATION_CODE.match(name) else "harness"
        found = ns_pattern.search(name)
        return ns_layer[found.group(1)] if found else None

    callers = collections.defaultdict(collections.Counter)  # callee -> caller -> calls
    for (from_pc, self_pc), count in arcs.items():
        caller, callee = symbol_at(from_pc), symbol_at(self_pc)
        if caller is not None and callee is not None and caller != callee:
            callers[callee][caller] += count

    # The harness: its own code, then whatever only the harness calls.
    harness_only = {i for i in range(len(symbols)) if own_layer(i) == "harness"}
    callers_of_harness = {i for i in harness_only if symbols[i][1] != "main"}
    grew = True
    while grew:
        grew = False
        for i, calls in callers.items():
            if i not in harness_only and calls.keys() <= callers_of_harness:
                harness_only.add(i)
                callers_of_harness.add(i)
                grew = True

    shares_memo = {}

    def layer_shares(i, seen=frozenset()):
        """{layer: fraction} of symbol i's self time."""
        if i in shares_memo:
            return shares_memo[i]
        layer = "harness" if i in harness_only else own_layer(i)
        if layer is not None:
            shares = {layer: 1.0}
        else:
            split = collections.Counter()
            calls = {c: n for c, n in callers[i].items() if c not in seen}
            total = sum(calls.values())
            for caller, n in calls.items():
                for caller_layer, f in layer_shares(caller, seen | {i}).items():
                    split[caller_layer] += f * n / total
            shares = dict(split) or {"other": 1.0}
        if not seen:
            shares_memo[i] = shares
        return shares

    by_layer = collections.Counter()
    for i, count in samples.items():
        for layer, f in layer_shares(i).items():
            by_layer[layer] += f * count
    total = sum(by_layer.values())
    harness = by_layer.pop("harness", 0.0)
    simulation = total - harness
    if simulation <= 0:
        raise SystemExit("host_profile: no samples outside the harness")
    tick_s = 1.0 / rate if rate else 0.0
    # A faster tree fits more replays into --seconds, so compare trees per
    # replay.
    replays = int(re.search(r"(\d+) replays", result.stderr).group(1))
    print(f"host_profile: {args.workload} seed {SEED}, --seconds {args.seconds:g}: "
          f"{replays} replays, {total:.0f} samples of {tick_s * 1e3:g} ms in the program")
    print(f"harness (set-up, speed probe, result sorting): {100 * harness / total:.1f}% "
          f"of them, left out below")
    print(f"{'layer':<10}{'self_%':>8}{'ms/replay':>11}")
    for layer, count in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<10}{100 * count / simulation:>8.1f}"
              f"{1e3 * count * tick_s / replays:>11.1f}")
    print(f"{'total':<10}{100.0:>8.1f}{1e3 * simulation * tick_s / replays:>11.1f}")
    print(f"\ntop {TOP_SYMBOLS} symbols by self time (% of all samples):")
    for i, count in samples.most_common(TOP_SYMBOLS):
        layers = "+".join(sorted(layer_shares(i)))
        print(f"{100 * count / total:>6.1f}  {layers:<10}{symbols[i][1][:110]}")


if __name__ == "__main__":
    main()
