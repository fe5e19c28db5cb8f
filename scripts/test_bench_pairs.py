#!/usr/bin/env python3
"""Self-tests for bench_pairs.py's statistics helpers, on canned numbers.

The runner's verdicts (median, IQR, change in %, pairs won, the bound
flag) decide whether a perf claim stands, so each is pinned here
without running any benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_pairs  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_median_and_iqr_of_an_even_sample(self):
        values = [860.0, 844.0, 821.0, 825.0]
        self.assertAlmostEqual(bench_pairs.median(values), 834.5)
        # Inclusive method: order statistics 821 825 844 860 at
        # positions 0..3; q1 at 0.75, q3 at 2.25.
        q1, q3 = bench_pairs.quartiles(values)
        self.assertAlmostEqual(q1, 824.0)
        self.assertAlmostEqual(q3, 848.0)
        self.assertAlmostEqual(bench_pairs.iqr(values), 24.0)

    def test_odd_sample_and_single_value(self):
        self.assertAlmostEqual(bench_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]), 2.0)
        self.assertEqual(bench_pairs.quartiles([7.0]), (7.0, 7.0))
        self.assertEqual(bench_pairs.iqr([7.0]), 0.0)


class Verdicts(unittest.TestCase):
    def test_change_pct(self):
        self.assertAlmostEqual(bench_pairs.change_pct(800.0, 520.0), -35.0)
        self.assertAlmostEqual(bench_pairs.change_pct(200.0, 250.0), 25.0)
        self.assertEqual(bench_pairs.change_pct(0.0, 0.0), 0.0)

    def test_worse_fraction_follows_the_direction(self):
        self.assertAlmostEqual(bench_pairs.worse_fraction(100.0, 120.0, "lower"), 0.2)
        self.assertAlmostEqual(bench_pairs.worse_fraction(100.0, 120.0, "higher"), -0.2)
        self.assertAlmostEqual(bench_pairs.worse_fraction(100.0, 70.0, "higher"), 0.3)

    def test_wins_count_strict_improvements(self):
        pairs = [(10.0, 8.0), (10.0, 10.0), (10.0, 12.0), (9.0, 7.0)]
        self.assertEqual(bench_pairs.wins(pairs, "lower"), 2)
        self.assertEqual(bench_pairs.wins(pairs, "higher"), 1)

    def test_summary_of_a_claimed_gain(self):
        pairs = [(860.0, 539.0), (844.0, 525.0), (821.0, 507.0), (825.0, 542.0)]
        row = bench_pairs.summarize("checkpoint_ms", "lower", 0.24, pairs)
        self.assertAlmostEqual(row["parent_median"], 834.5)
        self.assertAlmostEqual(row["change_median"], 532.0)
        self.assertAlmostEqual(row["change_pct"], (532.0 - 834.5) / 834.5 * 100.0)
        self.assertEqual(row["won"], 4)
        self.assertTrue(row["gain_beats_iqr"])
        self.assertFalse(row["over_bound"])

    def test_summary_flags_a_regression_past_the_bound(self):
        # peak_rss_mb, bound 0.15: 168 -> 192 MB is +14.3% (inside),
        # 168 -> 195 MB is +16.1% (outside).
        inside = bench_pairs.summarize("peak_rss_mb", "lower", 0.15, [(168.0, 192.0)])
        outside = bench_pairs.summarize("peak_rss_mb", "lower", 0.15, [(168.0, 195.0)])
        self.assertFalse(inside["over_bound"])
        self.assertTrue(outside["over_bound"])
        self.assertEqual(outside["won"], 0)
        self.assertFalse(outside["gain_beats_iqr"])
        drop = bench_pairs.summarize("peer_rounds_per_s", "higher", 0.24,
                                     [(100.0, 70.0), (100.0, 75.0)])
        self.assertTrue(drop["over_bound"])

    def test_gain_within_the_parents_spread_does_not_count(self):
        pairs = [(100.0, 99.0), (110.0, 108.0), (90.0, 89.0), (105.0, 104.0)]
        row = bench_pairs.summarize("setup_s", "lower", 0.25, pairs)
        self.assertEqual(row["won"], 4)
        self.assertFalse(row["gain_beats_iqr"])


class Spec(unittest.TestCase):
    def test_run_length_and_metrics_come_from_the_parents_benchmark(self):
        with tempfile.TemporaryDirectory() as tree:
            spec = {"run_seconds": 10, "end_to_end": [{"name": "checkpoint_ms", "unit": "ms",
                                                       "better": "lower", "bound": 0.24}]}
            (Path(tree) / "BENCHMARK.json").write_text(json.dumps(spec))
            loaded = bench_pairs.load_spec(tree)
        self.assertEqual(loaded["run_seconds"], 10)
        self.assertEqual([m["name"] for m in loaded["end_to_end"]], ["checkpoint_ms"])


class Trace(unittest.TestCase):
    SPEC = {
        "run_seconds": 10,
        "end_to_end": [{"name": "peer_rounds_per_s", "unit": "1/s", "better": "higher",
                        "bound": 0.24}],
        "per_layer": [{"name": "swarm.transfer_commit_ms", "unit": "ms", "better": "lower"},
                      {"name": "swarm.rerun_fraction", "unit": "ratio", "better": "lower"}],
    }

    def test_the_switch_picks_the_mode_and_the_metrics(self):
        untraced = bench_pairs.run_command("swarm_1e5", 1, 10, trace=False)
        traced = bench_pairs.run_command("swarm_1e5", 1, 10, trace=True)
        self.assertEqual(untraced[-2:], ["--trace", "0"])
        self.assertEqual(traced[-2:], ["--trace", "1"])
        self.assertEqual([m["name"] for m in bench_pairs.metrics_for(self.SPEC, False)],
                         ["peer_rounds_per_s"])
        self.assertEqual([m["name"] for m in bench_pairs.metrics_for(self.SPEC, True)],
                         ["swarm.transfer_commit_ms", "swarm.rerun_fraction"])

    def test_per_layer_metrics_are_never_flagged(self):
        (commit,) = [m for m in bench_pairs.metrics_for(self.SPEC, True)
                     if m["name"] == "swarm.transfer_commit_ms"]
        self.assertIsNone(commit["bound"])
        # A commit three times slower is reported, not flagged.
        row = bench_pairs.summarize(commit["name"], commit["better"], commit["bound"],
                                    [(109.0, 330.0), (112.0, 340.0)])
        self.assertAlmostEqual(row["change_pct"], (335.0 - 110.5) / 110.5 * 100.0)
        self.assertEqual(row["won"], 0)
        self.assertFalse(row["over_bound"])
        # The spec itself is left as read.
        self.assertNotIn("bound", self.SPEC["per_layer"][0])


if __name__ == "__main__":
    unittest.main(verbosity=2)
