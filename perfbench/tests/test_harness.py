"""Tests of the benchmark harness's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import harness  # noqa: E402


def attempt(digest="aa:bb", **overrides):
    a = {"publish_s": 1.0, "digest": digest, "epochs_run": 10,
         "epochs_configured": 10, "spent_epsilon": 0.2,
         "target_epsilon": 3.5, "utility": 0.7, "eval_s": 0.01}
    a.update(overrides)
    return a


def replay(digest="aa:bb"):
    r = attempt(digest, publish_s=1.2)
    r["spans"] = [["publish", 0.0, 1.2, -1],
                  ["proximity.precompute", 0.1, 0.5, 0],
                  ["core.accumulate", 0.5, 1.1, 0]]
    r["span_names"] = ["publish", "proximity.precompute", "core.accumulate",
                       "core.checkpoint"]
    r["counters"] = {"proximity.edges": 100.0}
    return r


DECLARED = ["proximity.precompute_s", "core.accumulate_s", "core.checkpoint_s",
            "proximity.edges", "proximity.edges_per_s", "graph.generate_s",
            "eval.s", "trace.publish_s", "trace.untimed_s", "trace.overhead_s"]


def trace_raw(replay_digest):
    return {"setup": [{"generate_s": 0.05}, {"generate_s": 0.04}],
            "publishes": [attempt()], "replays": [replay(replay_digest)]}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [["publish", 0.0, 10.0, -1],
                 ["a", 1.0, 4.0, 0],
                 ["b", 2.0, 3.0, 1],   # grandchild: leaves a's self time only
                 ["c", 5.0, 9.0, 0],
                 ["a", 9.5, 10.0, 0]]  # same name again: self times add
        t = harness.self_times(spans)
        self.assertAlmostEqual(t["a"], 2.0 + 0.5)
        self.assertAlmostEqual(t["b"], 1.0)
        self.assertAlmostEqual(t["c"], 4.0)
        self.assertAlmostEqual(t["publish"], 10.0 - 3.0 - 4.0 - 0.5)
        self.assertAlmostEqual(sum(t.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [["root", 0.0, 10.0, -1],
                 ["x", 1.0, 4.0, 0],
                 ["y", 3.0, 6.0, 0],
                 ["z", 9.0, 12.0, 0]]  # runs past its parent: clipped
        self.assertAlmostEqual(harness.self_times(spans)["root"],
                               10.0 - 5.0 - 1.0)

    def test_replay_figures_account_for_the_root(self):
        fig = harness.replay_figures(replay())
        self.assertAlmostEqual(fig["trace.publish_s"], 1.2)
        self.assertAlmostEqual(
            fig["proximity.precompute_s"] + fig["core.accumulate_s"] +
            fig["trace.untimed_s"], fig["trace.publish_s"])
        self.assertAlmostEqual(fig["proximity.edges_per_s"], 100.0 / 0.4)

    def test_unopened_span_reads_zero(self):
        self.assertEqual(harness.replay_figures(replay())["core.checkpoint_s"],
                         0.0)

    def test_span_outside_span_names_is_an_error(self):
        r = replay()
        r["spans"].append(["core.renamed", 1.1, 1.15, 0])
        with self.assertRaises(harness.HarnessError):
            harness.replay_figures(r)

    def test_missing_declared_figure_is_an_error(self):
        raw = trace_raw("aa:bb")
        raw["replays"][0]["span_names"].remove("core.checkpoint")
        with self.assertRaises(harness.HarnessError):
            harness.reduce_trace(raw, DECLARED)


class OutputCheckTest(unittest.TestCase):
    def test_matching_replay_passes(self):
        metrics, failures = harness.reduce_trace(trace_raw("aa:bb"), DECLARED)
        self.assertEqual(failures, [[]])
        self.assertAlmostEqual(metrics["trace.overhead_s"], 0.2)
        self.assertAlmostEqual(metrics["graph.generate_s"], 0.04)
        line = harness.result_line(metrics, dict.fromkeys(DECLARED, "s"),
                                   failures)
        self.assertTrue(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (1, 0))

    def test_mismatched_replay_digest_fails_the_run(self):
        metrics, failures = harness.reduce_trace(trace_raw("cc:dd"), DECLARED)
        line = harness.result_line(metrics, dict.fromkeys(DECLARED, "s"),
                                   failures)
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (1, 1))

    def test_mismatched_reference_digest_fails_one_publish(self):
        raw = {"setup": [{"setup_s": 0.1}], "peak_rss_mb": 50.0,
               "publishes": [attempt("aa:bb"), attempt("aa:bb")]}
        _, ok = harness.reduce_e2e(raw, reference_digest="aa:bb")
        self.assertEqual(ok, [[], []])
        _, bad = harness.reduce_e2e(raw, reference_digest="ee:ff")
        self.assertEqual([len(f) for f in bad], [1, 1])

    def test_setup_is_the_fastest_build(self):
        raw = {"setup": [{"setup_s": 0.3}, {"setup_s": 0.1}, {"setup_s": 0.2}],
               "peak_rss_mb": 50.0, "publishes": [attempt()]}
        metrics, _ = harness.reduce_e2e(raw)
        self.assertAlmostEqual(metrics["setup_s"], 0.1)

    def test_publishes_of_one_run_must_agree(self):
        raw = {"setup": [{"setup_s": 0.1}], "peak_rss_mb": 50.0,
               "publishes": [attempt("aa:bb"), attempt("aa:bc")]}
        _, failures = harness.reduce_e2e(raw)
        self.assertEqual([len(f) for f in failures], [0, 1])

    def test_budget_epochs_and_utility_checks(self):
        self.assertTrue(harness.attempt_failures(attempt(spent_epsilon=4.0)))
        self.assertTrue(harness.attempt_failures(attempt(epochs_run=9)))
        self.assertTrue(harness.attempt_failures(attempt(utility=None)))
        self.assertTrue(
            harness.attempt_failures(attempt(utility=float("nan"))))
        self.assertEqual(harness.attempt_failures(attempt()), [])


class MetricNameTest(unittest.TestCase):
    def test_rejects_names_outside_the_alphabet(self):
        for bad in ["bad name", "a/b", "-lead", "_lead", "x" * 65, "", "é",
                    "a\n"]:
            with self.assertRaises(harness.HarnessError, msg=bad):
                harness.validate_metric_names([bad])

    def test_accepts_layer_names(self):
        harness.validate_metric_names(
            ["storage.graph_pool.hit_ratio", "eval.s", "setup_s", "x" * 64])

    def test_declared_metrics_are_valid(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in spec[k]]
        harness.validate_metric_names(names)
        self.assertEqual(len(names), len(set(names)))

    def test_result_must_match_the_declared_set(self):
        with self.assertRaises(harness.HarnessError):
            harness.result_line({"publish_s": 1.0}, {"setup_s": "s"}, [[]])


if __name__ == "__main__":
    unittest.main()
