#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which builds the library
from ../src) into .bench_build/perfbench; later calls rebuild incrementally.
Build output goes to stderr. The workload runs as one perfbench process.
stdout ends with two lines: the run record (host, build, digest, failures,
repetitions) and then the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics with --trace 0 and
its per_layer metrics with --trace 1. With --trace 1 the benchmark's spans
are written to .bench_build/spans/<workload>-<seed>.json.

Exit codes: 0 with a result, 1 when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A result must be printed within 180 s of the start (the first build
# excepted); this leaves the run its own margin.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build perfbench; returns the executable path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed (perfbench builds the library from ../src)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run([cmake, "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]

    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    record = json.loads(lines[-1])

    values = record["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        fail(f"metrics missing from the run: {missing}")
    result = {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    summary = {k: v for k, v in record.items()
               if k not in ("end_to_end", "per_layer")}
    summary["run_s"] = time.monotonic() - started
    print(json.dumps(summary))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
