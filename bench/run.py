#!/usr/bin/env python3
"""Build the scale and failure benchmarks and run each one RUNS times.

Run from anywhere in a checkout:

    python3 bench/run.py [--quick]

Builds a Release tree in build-bench/ and runs each of PROGRAMS RUNS times,
one after another. For each program it writes <program>.json holding every
run's own JSON and exit code, the median and interquartile range of every
numeric field across the runs, and the host, CPU, cores, build type and git
sha.

Full runs also enforce each program's latency and scaling gates and write
bench/results/. --quick is the ctest smoke mode (fewer records and
iterations, no latency gates) and writes build-bench/results/, so the
committed results keep full-run numbers. The exit code is non-zero when any
run fails its gates.

End-to-end cost is perfbench's question (perfbench/run.py); primitive costs
are bench_crypto's (build-bench/bench/bench_crypto).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
PROGRAMS = ("bench_hotpath", "bench_store_scale", "bench_replication",
            "bench_concurrency", "bench_soak", "bench_cluster")
RUNS = 5
RUN_TIMEOUT_S = 1800


def run(cmd, **kwargs):
    return subprocess.run(cmd, cwd=ROOT, check=True, **kwargs)


def build():
    run(["cmake", "-B", str(BUILD), "-S", str(ROOT),
         "-DCMAKE_BUILD_TYPE=Release"], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count())),
         "--target", *PROGRAMS])


def provenance(quick):
    def git(*args):
        return run(["git", *args], capture_output=True,
                   text=True).stdout.strip()

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    build_type = next(line.split("=", 1)[1]
                      for line in (BUILD / "CMakeCache.txt").read_text()
                      .splitlines()
                      if line.startswith("CMAKE_BUILD_TYPE:"))
    return {
        "mode": "quick" if quick else "full",
        "runs": RUNS,
        "host": platform.node(),
        "cpu": cpu,
        "cores": os.cpu_count(),
        "kernel": f"{platform.system()} {platform.release()}",
        "build_type": build_type,
        "git_sha": git("rev-parse", "HEAD")
        + ("-dirty" if git("status", "--porcelain") else ""),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def numeric_fields(value, prefix=""):
    """Flatten a run's JSON to {"a.b.c": number} for its numeric leaves. A
    list element that is an object is named by its first field, as in
    "reactor_series.connections=5000.get_ms.p99"."""
    if isinstance(value, list):
        value = {(f"{next(iter(item))}={next(iter(item.values()))}"
                  if isinstance(item, dict) and item else str(i)): item
                 for i, item in enumerate(value)}
    if isinstance(value, dict):
        out = {}
        for key, child in value.items():
            out.update(numeric_fields(child, f"{prefix}{key}."))
        return out
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {prefix[:-1]: value}
    return {}


def summarize(results):
    """Median and interquartile range of each field every run reported."""
    fields = [numeric_fields(r) for r in results]
    summary = {}
    for name in fields[0] if fields else ():
        values = [f[name] for f in fields if name in f]
        if len(values) != len(fields):
            continue
        quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else [values[0]] * 3)
        summary[name] = {"median": statistics.median(values),
                         "iqr": quartiles[2] - quartiles[0]}
    return summary


def run_program(program, quick, scratch):
    runs = []
    for i in range(RUNS):
        out = scratch / f"{program}.{i}.json"
        cmd = [str(BUILD / "bench" / program), "--out", str(out)]
        if quick:
            cmd.append("--quick")
        print(f"== {program} run {i + 1}/{RUNS}", flush=True)
        start = time.monotonic()
        try:
            code = subprocess.run(cmd, cwd=scratch,
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        runs.append({
            "exit_code": code,
            "wall_s": round(time.monotonic() - start, 2),
            "result": json.loads(out.read_text()) if out.is_file() else None,
        })
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: small inputs, no latency gates")
    args = parser.parse_args()

    build()
    results_dir = (BUILD if args.quick else ROOT / "bench") / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    for program in PROGRAMS:
        with tempfile.TemporaryDirectory(prefix="myproxy-bench-") as scratch:
            runs = run_program(program, args.quick, Path(scratch))
        record = {
            "benchmark": program,
            "provenance": provenance(args.quick),
            "summary": summarize([r["result"] for r in runs
                                  if r["result"] is not None]),
            "runs": runs,
        }
        path = results_dir / f"{program}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"recorded {path.relative_to(ROOT)}", flush=True)
        if any(r["exit_code"] != 0 for r in runs):
            failed.append(program)
    if failed:
        print(f"gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
