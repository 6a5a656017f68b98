"""Tests of the benchmark's own code (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def serve_shares(spec):
    """Outcome shares the generated serve-mixed stream implies: a key's
    first request is a disk hit when its scalar entry was pre-warmed and
    a miss otherwise (profiles are never pre-warmed); later requests for
    the key are memory hits."""
    prewarm = set()
    requests = []
    for line in spec.splitlines():
        words = line.split()
        if words[0] == "prewarm":
            prewarm = {int(w) for w in words[1:]}
        elif words[0] == "request":
            requests.append((int(words[2]), words[3] == "1"))
    seen = set()
    counts = {"memory": 0, "disk": 0, "miss": 0, "profile": 0}
    for key in requests:
        if key[1]:
            counts["profile"] += 1
        if key in seen:
            counts["memory"] += 1
        elif not key[1] and key[0] in prewarm:
            counts["disk"] += 1
        else:
            counts["miss"] += 1
        seen.add(key)
    return {k: v / len(requests) for k, v in counts.items()}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_and_other_seed_differs(self):
        for name in workloads.WORKLOADS:
            a = workloads.generate(name, 7, 20)
            self.assertEqual(a.encode(), workloads.generate(name, 7, 20).encode(),
                             name)
            self.assertNotEqual(a, workloads.generate(name, 8, 20), name)

    def test_sweep_grid_shape(self):
        spec = workloads.generate("sweep-longpath", 3, 20).splitlines()
        self.assertEqual(spec[1], "hops 5 10 20 40")
        self.assertEqual(spec[2], "schedulers edf fifo bmux")
        axes = [[float(w) for w in line.split()[1:]]
                for line in spec if line.startswith("uc ")]
        self.assertEqual(len(axes), workloads.SWEEP_GRIDS)
        for uc in axes:
            self.assertEqual(len(uc), 8)
            self.assertEqual(uc, sorted(uc))
            self.assertTrue(all(0.1 <= u <= 0.8 for u in uc))

    def test_serve_mix_shares_fall_in_stated_ranges(self):
        # The ranges README.md states for serve-mixed.
        ranges = {"memory": (0.55, 0.90), "disk": (0.05, 0.20),
                  "miss": (0.05, 0.20), "profile": (0.02, 0.05)}
        for seed in (1, 2, 3):
            shares = serve_shares(workloads.generate("serve-mixed", seed, 20))
            for outcome, (lo, hi) in ranges.items():
                self.assertTrue(lo <= shares[outcome] <= hi,
                                f"seed {seed}: {outcome} share "
                                f"{shares[outcome]:.3f} outside [{lo}, {hi}]")


class MetricsTest(unittest.TestCase):
    def test_metric_names_are_well_formed_and_match_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        declared = {m["name"]: m["unit"]
                    for m in bench["end_to_end"] + bench["per_layer"]}
        produced = dict(metrics.END_TO_END + metrics.PER_LAYER)
        self.assertEqual(declared, produced)
        for name in produced:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, metrics.METRIC_NAME)
        listed = [w["name"] for w in bench["workloads"]]
        self.assertTrue(set(listed) <= set(workloads.WORKLOADS), listed)

    def test_percentile_rule_refuses_unsupported_percentiles(self):
        for q, needed in ((50.0, 20), (90.0, 100), (99.0, 1000)):
            with self.assertRaises(metrics.UnsupportedPercentile):
                metrics.percentile(range(needed - 1), q)
            metrics.percentile(range(needed), q)
        with self.assertRaises(metrics.UnsupportedPercentile):
            metrics.percentile([], 50.0)
        self.assertEqual(metrics.percentile(range(1, 1001), 99.0), 990)
        self.assertEqual(metrics.highest_supported(999), 90.0)
        self.assertEqual(metrics.highest_supported(1000), 99.0)

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            {"id": 0, "name": "core.run", "start_ms": 0.0, "end_ms": 10.0,
             "parent": -1, "request": -1},
            {"id": 1, "name": "e2e.a", "start_ms": 2.0, "end_ms": 4.0,
             "parent": 0, "request": 1},
            {"id": 2, "name": "e2e.b", "start_ms": 3.0, "end_ms": 6.0,
             "parent": 0, "request": 2},
        ]
        self.assertEqual(metrics.self_times(spans), {"core": 6.0, "e2e": 5.0})


class LedgerTest(unittest.TestCase):
    def assert_closed(self, shares):
        self.assertAlmostEqual(sum(v for k, v in shares.items()
                                   if k != "over_attributed"), 1.0)
        self.assertGreaterEqual(shares["untraced"], 0.0)
        self.assertTrue(all(v >= 0.0 for v in shares.values()), shares)

    def test_remainder_is_untraced(self):
        shares = metrics.close_ledger({"e2e": 0.5, "core": 0.3})
        self.assert_closed(shares)
        self.assertAlmostEqual(shares["untraced"], 0.2)
        self.assertEqual(shares["over_attributed"], 0.0)

    def test_over_attribution_is_scaled_and_flagged(self):
        shares = metrics.close_ledger({"io": 0.6, "serve": 0.6, "load": -0.1})
        self.assert_closed(shares)
        self.assertEqual(shares["untraced"], 0.0)
        self.assertAlmostEqual(shares["over_attributed"], 0.2)
        self.assertAlmostEqual(shares["io"], 0.5)

    def serve_raw(self, inproc_ms):
        n = 200
        samples = {
            "replay.parse_us": [10.0] * 4, "replay.encode_us": [10.0] * 4,
            "replay.inproc_ms": [inproc_ms] * 50 + [30.0] * 5,
            "replay.inproc_hit": [1.0] * 50 + [0.0] * 5,
            "load.client_ms": [0.2 + 0.001 * i for i in range(n)],
            "load.late_ms": [0.01] * n,
            "load.hit": [1.0 if i % 5 else 0.0 for i in range(n)],
        }
        return {"scalars": {}, "samples": samples}

    def test_serve_ledger_splits_one_request_population(self):
        shares = metrics.ledger("serve-mixed", self.serve_raw(0.1), [])
        self.assert_closed(shares)
        # Median band: client ~0.3 ms = 0.01 late + 0.02 io + 0.08 serve
        # + ~0.19 socket (untraced).
        self.assertAlmostEqual(shares["load"], 0.01 / 0.3, places=2)
        self.assertAlmostEqual(shares["io"], 0.02 / 0.3, places=2)
        self.assertAlmostEqual(shares["serve"], 0.08 / 0.3, places=2)
        self.assertAlmostEqual(shares["untraced"], 0.19 / 0.3, places=2)
        # Replay prices above the live latency cannot leave a negative
        # remainder.
        shares = metrics.ledger("serve-mixed", self.serve_raw(0.5), [])
        self.assert_closed(shares)
        self.assertGreater(shares["over_attributed"], 0.0)

if __name__ == "__main__":
    unittest.main()
