#!/usr/bin/env python3
"""CI gate: perfbench's deterministic outputs must match BENCH_perfbench.json.

    python3 scripts/check_perfbench.py [--update]

Builds perfbench through perfbench/run.py's build(), as
perfbench/test_perfbench.py does, and runs every BENCHMARK.json workload
once at reduced size (--size 32 --steps 9 --seconds 0.01 --trace 1
--seed 1). Each run's digest, traced digest and exact work counts
(hydro.items, ale.remaps, par.graphs, typhon.messages, typhon.bytes) must
equal the committed BENCH_perfbench.json. Wall times are not compared:
the host's speed is not deterministic.

On a mismatch it prints the computed values and exits 1. --update
rewrites the file from this build instead. A deliberate trajectory change
regenerates it in the change that moves the digests; the counts move only
when the work itself does.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

BENCH = ROOT / "BENCH_perfbench.json"
CONFIG = {"size": 32, "steps": 9, "seconds": 0.01, "trace": 1, "seed": 1}
DIGESTS = ["digest", "traced_digest"]
COUNTS = ["hydro.items", "ale.remaps", "par.graphs", "typhon.messages",
          "typhon.bytes"]


def measure(exe, workload):
    """One reduced-size traced run; returns its deterministic outputs."""
    cmd = [str(exe), "--workload", workload]
    for key, value in CONFIG.items():
        cmd += [f"--{key}", str(value)]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        run.fail(f"{workload}: perfbench exited with {out.returncode}")
    record = json.loads(out.stdout.strip().splitlines()[-1])
    if record["failed"] != 0:
        run.fail(f"{workload}: {record['failures']}")
    values = {name: record[name] for name in DIGESTS}
    values.update({name: record["per_layer"][name] for name in COUNTS})
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {BENCH.name} from this build")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe = run.build()
    computed = {w["name"]: measure(exe, w["name"]) for w in spec["workloads"]}
    document = {"config": CONFIG, "workloads": computed}

    if args.update:
        BENCH.write_text(json.dumps(document, indent=2) + "\n")
        print(f"check_perfbench: wrote {BENCH.name}")
        return 0

    committed = json.loads(BENCH.read_text())
    if committed.get("config") != CONFIG:
        print(f"check_perfbench: {BENCH.name} was made with "
              f"{committed.get('config')}, expected {CONFIG}")
        return 1
    mismatches = 0
    for workload, values in computed.items():
        want = committed["workloads"].get(workload, {})
        for name, value in values.items():
            if want.get(name) != value:
                mismatches += 1
                print(f"{workload} {name}: computed {value!r}, "
                      f"committed {want.get(name)!r}")
    if mismatches:
        print(f"check_perfbench: {mismatches} mismatches; this build "
              f"computes:\n{json.dumps(computed, indent=2)}")
        return 1
    print(f"check_perfbench: {len(computed)} workloads match {BENCH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
