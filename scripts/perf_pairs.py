#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/perf_pairs.py PARENT CHANGE --workload NAME
        [--pairs 10] [--seconds S] [--seed0 1] [--out runs.json]

PARENT and CHANGE are checkout directories, each with its own
perfbench/run.py and BENCHMARK.json. Both perfbench builds are brought up
to date first, so no build runs between timed runs. Pair i runs both
checkouts' `perfbench/run.py --trace 0` with seed seed0 + i, parent first
on even pairs and change first on odd ones: the host drifts between speed
regimes, so only runs made back to back are comparable.

For every end_to_end metric of CHANGE's BENCHMARK.json it prints n, each
side's median [q1, q3], the pairs the change wins and the parent's
interquartile range, then a verdict by the benchmark's rules:
  gain           the change wins at least 9 pairs in 10 and its median is
                 better than the parent's by more than the parent's IQR;
  REGRESSION     the change's median is worse than the parent's by more
                 than the metric's bound, read as a fraction of the
                 parent's median;
  unresolved     within the bound, but the parent's IQR is wider than
                 the bound and not every change run beats every parent run;
  no regression  otherwise.
It also reports failed/attempted operations per side and whether the two
sides' digests agreed in every pair. --out writes every run's record.
Exit status: 1 on a regression, a failed run or a failed operation.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def build(checkout):
    """Bring the checkout's perfbench build up to date (output discarded)."""
    code = "import sys; sys.path.insert(0, 'perfbench'); import run; run.build()"
    subprocess.run([sys.executable, "-c", code], cwd=checkout, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run; returns (summary, result) or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write every run as JSON")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = args.seconds or float(spec["run_seconds"])
    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        build(checkout)

    runs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, seconds)
        runs.append(pair)
        brief = {side: (pair[side][1]["metrics"]["grind_ns"]["value"]
                        if pair[side] else "failed") for side in order}
        print(f"pair {i + 1}/{args.pairs} seed {seed}: {brief}", flush=True)

    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")

    complete = [p for p in runs if p["parent"] and p["change"]]
    bad = False
    print(f"\n{args.workload}: {len(complete)} complete pairs of "
          f"{len(runs)}, {seconds:g} s runs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}")
    for side in sides:
        ok = [p[side] for p in runs if p[side]]
        attempted = sum(s["attempted"] for s, _ in ok)
        failed = sum(s["failed"] for s, _ in ok)
        crashed = len(runs) - len(ok)
        bad |= failed > 0 or crashed > 0
        print(f"  {side}: failed/attempted {failed}/{attempted}, "
              f"runs failed {crashed}")
    same = sum(p["parent"][0]["digest"] == p["change"][0]["digest"]
               for p in complete)
    print(f"  digests equal in {same}/{len(complete)} pairs")
    if not complete:
        return 1

    print(f"\n  {'metric':<12} {'n':>3}  {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'wins':>5} {'parent IQR':>11}"
          "  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [pair["parent"][1]["metrics"][name]["value"] for pair in complete]
        c = [pair["change"][1]["metrics"][name]["value"] for pair in complete]
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        iqr = pq3 - pq1
        gap = (pmed - cmed) if lower else (cmed - pmed)
        worse = -gap
        bound = m["bound"] * abs(pmed)
        separated = max(c) < min(p) if lower else min(c) > max(p)
        if wins >= math.ceil(0.9 * len(complete)) and gap > iqr:
            verdict = "gain"
        elif worse > bound:
            verdict = "REGRESSION"
            bad = True
        elif iqr > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "no regression"
        ratio = ""
        if pmed:
            rel = (cmed - pmed) / pmed
            ratio = (f"  (change/parent {cmed / pmed:.3f})" if abs(rel) >= 1e-3
                     else f"  (relative change {rel:+.2e})")
        print(f"  {name:<12} {len(complete):>3}  "
              f"{fmt(pmed) + ' [' + fmt(pq1) + ', ' + fmt(pq3) + ']':<32} "
              f"{fmt(cmed) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':<32} "
              f"{wins:>2}/{len(complete):<2} {fmt(iqr):>11}  {verdict}{ratio}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
