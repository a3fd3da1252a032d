"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The --jobs test builds the benchmark binary (as run.py does) and runs one
pass of two workloads serially and on three executor threads.
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


class TailTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_runs_beyond(self):
        values = list(range(1, 101))  # 100 runs: p95 leaves 5 beyond, p90 leaves 10
        self.assertEqual(run.tail(values), (90, 90.0, 100))

    def test_more_runs_reach_higher_percentiles(self):
        values = list(range(1, 1001))
        self.assertEqual(run.tail(values), (990, 99.0, 1000))
        values = list(range(1, 10001))
        self.assertEqual(run.tail(values), (9990, 99.9, 10000))

    def test_threshold_is_exact(self):
        self.assertEqual(run.tail(list(range(1, 200)))[1], 90.0)  # p95 leaves 9
        self.assertEqual(run.tail(list(range(1, 201)))[1], 95.0)  # p95 leaves 10

    def test_order_of_input_does_not_matter(self):
        values = list(range(1, 101))
        self.assertEqual(run.tail(list(reversed(values))), run.tail(values))

    def test_small_run_counts_reach_p75_then_the_median(self):
        self.assertEqual(run.tail(list(range(1, 41))), (30, 75.0, 40))
        self.assertEqual(run.tail(list(range(1, 40))), (20, 50.0, 39))
        self.assertEqual(run.tail(list(range(1, 21))), (10, 50.0, 20))

    def test_too_few_runs_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail([5.0, 1.0, 3.0]), (5.0, None, 3))
        self.assertEqual(run.tail(list(range(1, 20))), (19, None, 19))

    def test_no_runs_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail([])


class RunWallsTest(unittest.TestCase):
    def test_each_run_is_the_median_of_its_replays(self):
        passes = [{"runs": [[1.0, "a", False], [10.0, "b", False]]},
                  {"runs": [[3.0, "a", False], [30.0, "b", False]]},
                  {"runs": [[2.0, "a", False], [99.0, "b", False]]}]
        self.assertEqual(run.run_walls(passes), [2.0, 30.0])


class MetricNameTest(unittest.TestCase):
    def test_valid_and_invalid_names(self):
        for name in ["campaign_s", "sim.us_per_resolve", "a-b.c_1", "9lives"]:
            self.assertTrue(run.valid_metric_name(name), name)
        for name in ["", "_x", ".x", "a b", "a/b", "µs", "x" * 65, "run_ms{p99}"]:
            self.assertFalse(run.valid_metric_name(name), name)

    def test_every_reported_and_declared_name_is_valid(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
        names += [w["name"] for w in declared["workloads"]]
        names += [name for name, _ in run.END_TO_END + run.PER_LAYER]
        for name in names:
            self.assertTrue(run.valid_metric_name(name), name)

    def test_reported_metrics_match_the_declaration(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in declared["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in declared["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in declared["workloads"]], run.WORKLOADS)


class DigestCheckTest(unittest.TestCase):
    @staticmethod
    def passes(*legs_and_digests):
        return [{"leg": leg, "runs": [[1.0, d, False] for d in digests]}
                for leg, digests in legs_and_digests]

    def test_matching_runs_pass(self):
        passes = self.passes(("untraced", ["a", "b"]), ("traced", ["a", "b"]))
        self.assertEqual(run.check_digests(passes, ["a", "b"])[:2], (4, 0))

    def test_each_mismatching_run_counts_once(self):
        passes = self.passes(("untraced", ["a", "x"]), ("traced", ["y", "b"]))
        self.assertEqual(run.check_digests(passes, ["a", "b"])[:2], (4, 2))

    def test_flagged_and_missing_runs_fail(self):
        passes = self.passes(("untraced", ["a"]))
        passes[0]["runs"][0][2] = True
        self.assertEqual(run.check_digests(passes, ["a", "b"])[:2], (2, 2))

    def test_without_reference_the_first_untraced_pass_is_the_reference(self):
        passes = self.passes(("untraced", ["a", "b"]), ("traced", ["a", "c"]))
        attempted, failed, notes = run.check_digests(passes, None)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertTrue(any("no stored reference" in n for n in notes))


class JobsInvarianceTest(unittest.TestCase):
    """Digests never depend on the executor's thread count."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_digests_equal_across_jobs_and_match_the_reference(self):
        references = run.load_references()
        for workload in ["gray_failure", "paper_campaign"]:
            digests = {}
            for jobs in (1, 3):
                raw = run.run_binary(workload, run.DEFAULT_SEED, 1, 0, jobs=jobs, passes=1)
                digests[jobs] = [digest for _, digest, _ in raw["passes"][0]["runs"]]
            self.assertEqual(digests[1], digests[3], workload)
            self.assertEqual(digests[1],
                             run.reference_for(references, workload, run.DEFAULT_SEED),
                             workload)

    def test_traced_leg_reproduces_the_untraced_leg(self):
        raw = run.run_binary("gray_failure", run.DEFAULT_SEED, 1, 1, passes=1)
        legs = {p["leg"]: [digest for _, digest, _ in p["runs"]] for p in raw["passes"]}
        self.assertEqual(legs["untraced"], legs["traced"])


if __name__ == "__main__":
    unittest.main()
