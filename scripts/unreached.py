#!/usr/bin/env python3
"""Reachability scan: finds src/ code that no program runs.

Usage:

    cmake -B build-scan -S . \\
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fno-inline" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-scan -j
    cmake -S vodbench -B build-scan/vodbench \\
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fno-inline" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-scan/vodbench -j --target vodbench
    python3 scripts/unreached.py build-scan

Every function gets its own section and the linker drops every section no
other kept section refers to, so a binary holds exactly the functions it can
reach. With -fno-inline no call is folded into its caller, so a function
reached only through inlined calls still shows. (-fno-inline-functions is not
enough: it still inlines static helpers called once, so the callees of those
helpers look unreached.)

The scan lists, with `nm`, the out-of-line functions of the src/ libraries
(the T and t symbols of build-scan/src/*/*.a: functions defined in src/*.cc)
and the functions each binary keeps. The programs are the benches, the
examples and vodbench; the tests are the GoogleTest binaries. A function's
symbols are merged by demangled name, so constructor and destructor variants,
coroutine ramps and their .actor/.destroy parts, and .cold or other clones
count as one function; std:: and __gnu_cxx:: instantiations are skipped.

It fails, and says why, when
  * a function defined in src/*.cc is in no binary (reached by nothing);
  * a function only the tests reach is missing from TEST_ONLY below, which
    names the consumer each kept test-only function waits for;
  * a TEST_ONLY entry matches no function any more, or none that only the
    tests reach;
  * a src/ header is included by no file outside tests/.

What it cannot see: functions defined in headers (inline functions, class
bodies, templates). Those are weak symbols that every user emits, so an
unused one leaves no trace. crsim::Gate, a header-only class that only tests
used, was one of them; the header check catches such code only when a whole
header is test-only.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Functions that only tests run, each kept for a named consumer. A key is a
# prefix of the demangled signature; the value names the consumer: an open
# ROADMAP item that will call the function, the paper's interface, or
# "observer" for an accessor through which tests watch code the programs run.
TEST_ONLY = {
    # ROADMAP item 5: the replay test compares two runs' metrics.
    "crobs::Hub::MetricsJson(": "ROADMAP item 5 (replay check)",
    # ROADMAP item 6: explainable admission over the operator interface.
    "crnet::StatsQueryService::": "ROADMAP item 6 (operator interface)",
    "crobs::RegistrySnapshot::ToJson(": "ROADMAP item 6 (operator interface)",
    "crobs::DeltaSnapshot(": "ROADMAP item 6 (operator interface)",
    "crobs::SloMonitor::StateJson(": "ROADMAP item 6 (operator interface)",
    "crobs::SloMonitor::WriteJson(": "ROADMAP item 6 (operator interface)",
    "cras::AdmissionModel::MinimalInterval(": "ROADMAP item 6 (headroom)",
    "cras::AdmissionModel::TotalOverhead(": "ROADMAP item 6 (headroom)",
    "crvol::VolumeAdmissionModel::Estimate::BottleneckDisk(": "ROADMAP item 6 (binding disk)",
    "crnet::NpsSender::AttachObs(": "ROADMAP item 6 (transport metrics)",
    "crnet::NpsReceiver::AttachObs(": "ROADMAP item 6 (transport metrics)",
    "crnet::ReliableReceiver::AttachReceiveObs(": "ROADMAP item 6 (transport metrics)",
    # ROADMAP item 7: the client's control file drives exact VBR charging.
    "crmedia::ParseControlFile(": "ROADMAP item 7 (control file)",
    "crmedia::SerializeControlFile(": "ROADMAP item 7 (control file)",
    "crmedia::(anonymous namespace)::LineError(": "ROADMAP item 7 (control file)",
    # The paper's interface (Fig. 3). Seek, SetRate and the Unix server's Write
    # are interface too, but their out-of-line halves are reached through the
    # server threads; the awaitables callers use are defined in headers.
    "cras::CrasServer::SignalShutdown(": "paper interface (Fig. 3 signal handler)",
    # Observers: accessors through which tests watch what the programs run.
    "crcache::StreamCache::cache_served(": "observer",
    "crcache::StreamCache::prefix_pinned(": "observer",
    "crcache::StreamCache::popularity(": "observer",
    "crnet::Link::queue_depth(": "observer",
    "crvol::Volume::failed_member(": "observer",
    "crufs::Ufs::Lookup(": "observer",
    "crufs::Ufs::BlockLba(": "observer",
    "crobs::FrameTracer::Sessions(": "observer",
    "crobs::SessionTrace::Find(": "observer",
    "crobs::SloMonitor::WindowFrames(": "observer",
    "crobs::SloMonitor::WindowMisses(": "observer",
    "crobs::SloMonitor::DominantBucket(": "observer",
}

# Mangled-name prefixes of functions that belong to the standard library
# (std::, __gnu_cxx::), including instantiations over src/ types and local
# entities such as lambdas inside them.
STD_FUNCTION = re.compile(r"^_ZZ?N?[rVKRO]*(St|9__gnu_cxx)")
# A coroutine's actor and destroy functions take a pointer to a frame type
# local to the ramp function, named after the ramp's mangled name plus
# ".Frame"; c++filt cannot demangle them:
#   <ramp>EPZ<ramp encoding>E<length><mangled ramp>.Frame.actor
COROUTINE_PART = re.compile(r"(\d+)(_Z\w+)$")
# Demangler noise that is not part of a function's identity.
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return [ABI_TAG.sub("", name) for name in out]


def nm_functions(path, types):
    """Demangled names of the defined text symbols of `path` whose nm type
    letter is in `types`, each mapped to the archive member it came from
    (the empty string for a linked binary). C++ symbols only; standard
    library functions are left out."""
    out = subprocess.run(["nm", "--defined-only", "-A", path], check=True,
                         capture_output=True, text=True).stdout
    members, mangled = [], []
    for line in out.splitlines():
        fields = line.rsplit(" ", 2)
        if len(fields) != 3 or fields[1] not in types:
            continue
        name, _, suffix = fields[2].partition(".")  # foo.cold, foo.isra.0: clones of foo
        ramp = COROUTINE_PART.search(name)
        if (suffix.startswith("Frame") and ramp and
                len(ramp.group(2)) + len(".Frame") == int(ramp.group(1))):
            name = ramp.group(2)
        if not name.startswith("_Z") or STD_FUNCTION.match(name):
            continue
        parts = fields[0].split(":")
        members.append(parts[1] if len(parts) >= 3 else "")
        mangled.append(name)
    found = {}
    for name, member in zip(demangle(mangled), members):
        found.setdefault(name, member)
    return found


def executables(directory):
    if not os.path.isdir(directory):
        return []
    paths = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            with open(path, "rb") as handle:
                if handle.read(4) == b"\x7fELF":
                    paths.append(path)
    return paths


def header_users():
    """src/ header path -> the files outside tests/ that include it."""
    include = re.compile(r'^\s*#\s*include\s+"(src/[^"]+\.h)"', re.M)
    users = {}
    for top in ("src", "bench", "examples", "vodbench"):
        for directory, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if not name.endswith((".h", ".cc")):
                    continue
                path = os.path.join(directory, name)
                with open(path) as handle:
                    for header in include.findall(handle.read()):
                        users.setdefault(header, set()).add(os.path.relpath(path, ROOT))
    return users


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="a build with -ffunction-sections -fno-inline "
                        "and --gc-sections; vodbench built into <build_dir>/vodbench")
    args = parser.parse_args()
    build = args.build_dir

    # Out-of-line functions of src/*.cc, by the archive member they live in.
    defined = {}
    for layer in sorted(os.listdir(os.path.join(build, "src"))):
        layer_dir = os.path.join(build, "src", layer)
        if not os.path.isdir(layer_dir):
            continue
        for name in sorted(os.listdir(layer_dir)):
            if name.endswith(".a"):
                for function, member in nm_functions(os.path.join(layer_dir, name), "Tt").items():
                    source = f"src/{layer}/{member[:-2] if member.endswith('.o') else member}"
                    defined.setdefault(function, source)
    if not defined:
        print(f"unreached.py: no src/ libraries under {build}/src", file=sys.stderr)
        return 2

    programs = executables(os.path.join(build, "bench")) + executables(
        os.path.join(build, "examples"))
    vodbench = os.path.join(build, "vodbench", "vodbench")
    if not os.path.exists(vodbench):
        print(f"unreached.py: {vodbench} not built (cmake -S vodbench -B {build}/vodbench)",
              file=sys.stderr)
        return 2
    programs.append(vodbench)
    tests = [p for p in executables(os.path.join(build, "tests")) if p.endswith("_test")]
    if not tests:
        print(f"unreached.py: no test binaries under {build}/tests", file=sys.stderr)
        return 2

    by_programs = set()
    for path in programs:
        by_programs.update(nm_functions(path, "TtWwi"))
    by_tests = set()
    for path in tests:
        by_tests.update(nm_functions(path, "TtWwi"))
    print(f"{len(defined)} out-of-line src/ functions; {len(programs)} programs "
          f"({len(programs) - 1} benches and examples, vodbench), {len(tests)} test binaries")

    failures = 0
    unreached = sorted(f for f in defined if f not in by_programs and f not in by_tests)
    test_only = sorted(f for f in defined if f not in by_programs and f in by_tests)

    def entry_of(function):
        for prefix in TEST_ONLY:
            if function.startswith(prefix):
                return prefix
        return None

    if unreached:
        failures += len(unreached)
        print(f"\nFAIL: {len(unreached)} functions are in no binary; delete them:")
        for function in unreached:
            print(f"  {defined[function]}: {function}")

    unlisted = [f for f in test_only if entry_of(f) is None]
    if unlisted:
        failures += len(unlisted)
        print(f"\nFAIL: {len(unlisted)} functions only tests reach, with no consumer in "
              "TEST_ONLY; delete them with their tests, or name the consumer:")
        for function in unlisted:
            print(f"  {defined[function]}: {function}")

    for prefix, consumer in TEST_ONLY.items():
        matched = [f for f in defined if f.startswith(prefix)]
        if not matched:
            failures += 1
            print(f"\nFAIL: TEST_ONLY entry {prefix!r} ({consumer}) matches no src/ function")
        elif not any(f in test_only for f in matched):
            failures += 1
            print(f"\nFAIL: TEST_ONLY entry {prefix!r} ({consumer}) is no longer test-only: "
                  "a program reaches it; drop the entry")

    users = header_users()
    for directory, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(names):
            if name.endswith(".h"):
                header = os.path.relpath(os.path.join(directory, name), ROOT)
                if not users.get(header):
                    failures += 1
                    print(f"\nFAIL: {header} is included by no file outside tests/")

    kept = [f for f in test_only if entry_of(f) is not None]
    print(f"\n{len(kept)} test-only functions kept for a named consumer:")
    for function in kept:
        print(f"  [{TEST_ONLY[entry_of(function)]}] {function}")
    if failures:
        print(f"\nunreached.py: {failures} finding(s)")
        return 1
    print("\nunreached.py: every src/ function is reached by a program or has a named consumer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
