#!/usr/bin/env python3
"""Tests for perfbench's own aggregation: medians and quartiles, the
>= 10-samples-beyond tail rule, failed-run accounting, the checks, and the
output schema.

    python3 perfbench/test_benchlib.py
"""

import copy
import json
import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def table(count, scale=1.0):
    return {"count": count, "mean": scale * 50.5, "pct": [scale * q for q in range(101)]}


def record(**host):
    """A synthetic successful repetition record."""
    counters = {name: 0 for name in benchlib.COUNTERS}
    counters.update({"sim.events": 1000, "net.msgs": 30, "net.seq_msgs": 10, "net.par_msgs": 20,
                     "tmk.page_faults.par": 5, "tmk.diff_requests.par": 5,
                     "tmk.recoveries.par": 1, "ompnow.seq_sections": 2})
    h = {"cluster_ctor_s": 0.01, "world_setup_s": 0.001, "run_s": 2.0,
         "report_s": 0.0001, "allocs": 3000, "alloc_bytes": 2**21,
         "peak_rss_kb": 2048}
    h.update(host)
    return {"workload": "w", "seed": 1, "reference": False, "nodes": 4, "checksum": 42.0,
            "aux": 7, "vt": {"total_s": 10.0, "seq_s": 4.0, "par_s": 5.0},
            "counters": counters, "fault_resp_ms": table(2000), "host": h}


def traced_record():
    r = record(run_s=3.0)
    r["traced"] = {"events": 500, "slabs_dropped": 0, "page_fault_spans": 5,
                   "page_fault_s": 0.5, "rse_fault_spans": 0, "rse_fault_s": 0.0,
                   "bracket_s": 0.0, "rounds": 0, "round_ms": {"count": 0, "mean": 0.0, "pct": []},
                   "recovery_retries": 0, "fault_retries": 1, "section_spans": 2,
                   "section_s": 3.9, "batch_commits": 0, "tree_hops": 0, }
    return r


class MedianAndQuartiles(unittest.TestCase):
    def test_match_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(benchlib.median(values), 5.5)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / 5.5)

    def test_single_value_has_no_spread(self):
        self.assertEqual(benchlib.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(benchlib.spread([3.0]), 0.0)

    def test_zero_median_spread_is_infinite(self):
        self.assertTrue(math.isinf(benchlib.spread([0.0, 0.0, 0.0])))


class TailRule(unittest.TestCase):
    def test_p99_needs_ten_beyond(self):
        self.assertEqual(benchlib.tail_rank(1000), 99)  # exactly 10 beyond
        self.assertEqual(benchlib.tail_rank(999), 98)  # 9 beyond p99, 19 beyond p98
        self.assertEqual(benchlib.tail_rank(100), 90)
        self.assertEqual(benchlib.tail_rank(21), 52)

    def test_few_samples_fall_back_to_median(self):
        self.assertEqual(benchlib.tail_rank(19), 50)
        self.assertEqual(benchlib.tail_rank(1), 50)

    def test_tail_reads_the_table(self):
        self.assertEqual(benchlib.tail(table(100, scale=2.0)), (90, 180.0))
        self.assertEqual(benchlib.tail({"count": 0, "pct": []}), (99, 0.0))
        self.assertEqual(benchlib.p50(table(5)), 50.0)
        self.assertEqual(benchlib.p50({"count": 0, "pct": []}), 0.0)


class FailedRuns(unittest.TestCase):
    def test_abort_and_mismatch_fail_and_keep_their_message(self):
        good = record()
        aborted = {"error": "killed by signal 6: diff request retries exhausted for page 84"}
        wrong = record()
        wrong["checksum"] = 41.0
        why = [benchlib.failure(r, 42.0) for r in (good, aborted, wrong)]
        self.assertIsNone(why[0])
        self.assertIn("retries exhausted for page 84", why[1])
        self.assertIn("differs from the Sequential reference", why[2])

    def test_failed_share_reaches_the_metrics(self):
        values, _ = benchlib.per_layer([record()], traced_record(), 1 / 4)
        self.assertEqual(values["failed_runs"], 0.25)


class Checks(unittest.TestCase):
    def test_identical_runs_are_deterministic(self):
        a, b = record(), record(run_s=9.0, allocs=1)  # host numbers may differ
        self.assertEqual(benchlib.nondeterminism([a, b]), [])

    def test_any_schedule_difference_is_reported(self):
        a, b = record(), record()
        b["vt"]["seq_s"] = 4.5
        b["counters"]["net.msgs"] = 31
        problems = benchlib.nondeterminism([a, b])
        self.assertEqual(len(problems), 2)
        self.assertTrue(any("vt.seq_s" in p for p in problems))
        self.assertTrue(any("counters.net.msgs" in p for p in problems))

    def test_conservation(self):
        self.assertEqual(benchlib.conservation_violations(record()), [])
        bad = record()
        bad["counters"]["net.seq_msgs"] = 11
        bad["vt"]["par_s"] = 6.5
        self.assertEqual(len(benchlib.conservation_violations(bad)), 2)

    def test_counter_schema(self):
        self.assertEqual(benchlib.schema_problems(record()), [])
        r = record()
        del r["counters"]["sim.events"]
        self.assertEqual(len(benchlib.schema_problems(r)), 1)

    def test_trace_counts_against_counters(self):
        t = traced_record()
        self.assertEqual(benchlib.trace_mismatches(t["traced"], t["counters"]), [])
        t["traced"]["page_fault_spans"] = 4
        t["traced"]["slabs_dropped"] = 2
        self.assertEqual(len(benchlib.trace_mismatches(t["traced"], t["counters"])), 2)
        values, notes = benchlib.per_layer([record()], t, 0.0)
        self.assertEqual(values["obs.trace_truncated"], 1)
        self.assertIn("slabs were dropped", notes["obs.trace_truncated"])

    def test_failed_traced_run_marks_traced_numbers(self):
        values, _ = benchlib.per_layer([record()], None, 0.5)
        self.assertEqual(values["obs.trace_truncated"], 1)
        self.assertEqual(values["tmk.page_fault_s"], 0.0)


class Metrics(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names_match_benchmark_json(self):
        ref = record()
        ref["vt"]["total_s"] = 40.0
        values, notes = benchlib.end_to_end([record(), record(run_s=4.0, cluster_ctor_s=0.02)], ref)
        self.assertEqual(set(values), {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual(values["speedup"], 4.0)
        self.assertEqual(values["wall_s"], 3.0)
        self.assertEqual(values["setup_s"], 0.016)  # median of 0.011 and 0.021
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertIn("IQR/median", notes["wall_s"])

    def test_per_layer_names_match_benchmark_json(self):
        values, _ = benchlib.per_layer([record()], traced_record(), 0.0)
        self.assertEqual(set(values), {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(values["obs.trace_overhead"], 1.5)
        self.assertEqual(values["fault_resp_ms_mean"], 50.5)
        self.assertEqual(values["retry_share"], 1 / 5)
        self.assertEqual(values["obs.trace_truncated"], 0)


class ResultLine(unittest.TestCase):
    def test_schema(self):
        line = benchlib.result_line(True, 3, 0, {"wall_s": (1.25, "s"), "sim.events": (7, "count")})
        doc = json.loads(line)
        self.assertEqual(list(doc), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(doc["metrics"]["wall_s"], {"value": 1.25, "unit": "s"})
        self.assertEqual(doc["metrics"]["sim.events"], {"value": 7, "unit": "count"})

    def test_rejects_malformed_results(self):
        bad = (
            (1, 3, 0, {}),  # correct not a bool
            (True, 0, 0, {}),  # nothing attempted
            (True, 2, 3, {}),  # more failed than attempted
            (True, 2.0, 0, {}),  # attempted not whole
            (True, 1, 0, {"x": (float("nan"), "s")}),
            (True, 1, 0, {"x": (True, "s")}),
        )
        for args in bad:
            with self.assertRaises(ValueError, msg=repr(args)):
                benchlib.result_line(*copy.deepcopy(args))


if __name__ == "__main__":
    unittest.main()
