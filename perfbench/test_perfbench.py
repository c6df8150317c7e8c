#!/usr/bin/env python3
"""Cross-checks of the benchmark itself, run at reduced size (32^2, 9 steps).

    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, then checks that
  * the noh-ale-ranks digest equals a core::Hydro run of the same deck and seed;
  * every workload's traced digest equals its untraced digest (telemetry is
    passive) and no step fails;
  * the per-layer counts repeat exactly across two runs of one seed, and
    items, messages and bytes also across two seeds;
  * one seed always gives the same inputs, and another seed other ones.
"""

import json
import subprocess
import unittest

import run

WORKLOADS = ["noh-lagrange-serial", "sedov-eulerian-threads", "noh-ale-ranks"]
SAME_SEED_COUNTS = ["hydro.items", "ale.remaps", "par.graphs",
                    "typhon.messages", "typhon.bytes"]
CROSS_SEED_COUNTS = ["hydro.items", "typhon.messages", "typhon.bytes"]

EXE = None


def perfbench(workload, seed, trace=0, *extra):
    """One reduced-size run; returns its record."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", str(trace),
           "--size", "32", "--steps", "9", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert record["failed"] == 0, record["failures"]
    return record


def setUpModule():
    global EXE
    EXE = run.build()


class CrossChecks(unittest.TestCase):
    def test_dist_digest_matches_core_driver(self):
        for seed in (3, 8):
            dist = perfbench("noh-ale-ranks", seed)
            core = perfbench("noh-ale-ranks", seed, 0, "--driver", "core")
            self.assertEqual(dist["digest"], core["digest"], f"seed {seed}")

    def test_traced_digest_equals_untraced(self):
        for workload in WORKLOADS:
            record = perfbench(workload, 5, 1)
            self.assertTrue(record["digest"])
            self.assertEqual(record["digest"], record["traced_digest"],
                             workload)

    def test_counts_repeat(self):
        for workload in WORKLOADS:
            a = perfbench(workload, 1, 1)["per_layer"]
            b = perfbench(workload, 1, 1)["per_layer"]
            c = perfbench(workload, 2, 1)["per_layer"]
            for name in SAME_SEED_COUNTS:
                self.assertEqual(a[name], b[name], f"{workload} {name}")
            for name in CROSS_SEED_COUNTS:
                self.assertEqual(a[name], c[name], f"{workload} {name}")
            self.assertGreater(a["hydro.items"], 0)

    def test_seed_picks_the_inputs(self):
        for workload in WORKLOADS:
            a = perfbench(workload, 1)
            b = perfbench(workload, 1)
            c = perfbench(workload, 2)
            self.assertEqual(a["digest"], b["digest"], workload)
            self.assertNotEqual(a["digest"], c["digest"], workload)
            # Renumbering changes summation order only, not the physics.
            self.assertAlmostEqual(
                a["end_to_end"]["l1_rho_err"] / c["end_to_end"]["l1_rho_err"],
                1.0, places=9)


if __name__ == "__main__":
    unittest.main()
