#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload portal_get --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (and the repository
libraries it links) into .bench_build/. The open-loop rate of each workload
is read from its "why" in BENCHMARK.json ("open loop at N/s"). The last
line of stdout is the benchmark's JSON result; the exit code is non-zero
when the build fails, an output check fails, or the sources are missing.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
RATE_RE = re.compile(r"open loop at (\d+(?:\.\d+)?)/s")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    # CARGO_TARGET_DIR names the build directory the harness expects; the
    # CMake build honours it too.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target):
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", target])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return out / target


def source_id():
    """git sha (+dirty) when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                   capture_output=True, text=True,
                                   check=True).stdout.strip()
            return f"git:{sha}{'-dirty' if dirty else ''}"
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "etc", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found")
    return json.loads(path.read_text())


def open_loop_rate(spec, workload):
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            match = RATE_RE.search(entry["why"])
            if not match:
                fail(f"no 'open loop at N/s' in the why of {workload}")
            return match.group(1)
    fail(f"workload {workload} is not in BENCHMARK.json")


def selftest(spec):
    test = build("perfbench_selftest")
    if subprocess.run([str(test)], cwd=ROOT).returncode != 0:
        return 1
    listed = subprocess.run([str(build("perfbench")), "--list-metrics"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.split("\n")
    printed = {"end_to_end": set(), "per_layer": set()}
    for line in listed:
        if line:
            kind, name, unit = line.split()
            printed[kind].add((name, unit))
    for kind in printed:
        declared = {(m["name"], m["unit"]) for m in spec[kind]}
        if declared != printed[kind]:
            print(f"BENCHMARK.json {kind} differs from the metrics printed: "
                  f"{sorted(declared ^ printed[kind])}", file=sys.stderr)
            return 1
    for entry in spec["workloads"]:
        open_loop_rate(spec, entry["name"])
    print("selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT}")
    spec = benchmark_spec()
    if args.selftest:
        return selftest(spec)
    if not args.workload:
        fail("--workload is required")
    rate = open_loop_rate(spec, args.workload)
    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate", rate, "--source", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
