"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics as m

ROOT = Path(__file__).resolve().parent.parent


class TailPercentileTest(unittest.TestCase):
    def test_thousand_samples_support_p99_with_ten_beyond(self):
        q, value, n, beyond = m.tail_percentile(list(range(1, 1001)))
        self.assertEqual((q, value, n, beyond), (99.0, 990, 1000, 10))

    def test_one_short_of_a_thousand_falls_back_to_p95(self):
        q, value, n, beyond = m.tail_percentile(list(range(1, 1000)))
        self.assertEqual((q, n), (95.0, 999))
        self.assertEqual(value, 950)
        self.assertEqual(beyond, 49)

    def test_hundred_samples_support_p90(self):
        q, value, _, beyond = m.tail_percentile(list(range(1, 101)))
        self.assertEqual((q, value, beyond), (90.0, 90, 10))

    def test_tiny_sample_reports_the_median_and_its_short_count(self):
        q, value, n, beyond = m.tail_percentile([5, 1, 3])
        self.assertEqual((q, value, n, beyond), (50.0, 3, 3, 1))

    def test_order_of_samples_does_not_matter(self):
        values = [float(x) for x in range(500)]
        self.assertEqual(m.tail_percentile(values), m.tail_percentile(values[::-1]))


class WindowRateTest(unittest.TestCase):
    def test_events_go_to_the_window_of_their_midpoint(self):
        events = [(0.0, 0.5, 4), (0.5, 1.2, 4), (1.2, 2.0, 8)]
        # Window 0: midpoints 0.25 and 0.85 -> 8 units over 1.2 busy seconds.
        # Window 1: midpoint 1.6 -> 8 units over 0.8 s.
        rates = m.window_rates(events, 1.0, 2)
        self.assertAlmostEqual(rates[0], 8 / 1.2)
        self.assertAlmostEqual(rates[1], 8 / 0.8)

    def test_a_window_without_events_reads_zero(self):
        self.assertEqual(m.window_rates([(0.0, 0.5, 4)], 1.0, 2), [8.0, 0.0])

    def test_completion_rates_count_per_window_and_ignore_stragglers(self):
        self.assertEqual(m.completion_rates([0.1, 0.2, 1.5, 2.5], 1.0, 2), [2.0, 1.0])


class SelfTimeTest(unittest.TestCase):
    def span(self, sid, parent, t0, t1, name="x"):
        return {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1}

    def test_self_time_is_duration_minus_child_coverage(self):
        spans = [self.span(1, -1, 0, 10, "root"), self.span(2, 1, 1, 3), self.span(3, 1, 2, 5),
                 self.span(4, 1, 8, 12)]
        # Children cover [1, 5] and [8, 10] inside the root: 6 of its 10.
        own = m.self_times(spans)
        self.assertEqual(own[1], 4)
        self.assertEqual(own[2], 2)
        self.assertEqual(own[4], 4)

    def test_grandchildren_count_against_their_parent_only(self):
        spans = [self.span(1, -1, 0, 10, "root"), self.span(2, 1, 0, 6, "mid"),
                 self.span(3, 2, 1, 5, "leaf")]
        by_name = m.self_time_by_name(spans)
        self.assertEqual(by_name, {"root": 4, "mid": 2, "leaf": 4})

    def test_coverage_share_of_roots(self):
        spans = [self.span(1, -1, 0, 10, "root"), self.span(2, 1, 0, 9, "layer"),
                 self.span(3, -1, 20, 30, "root"), self.span(4, 3, 20, 30, "layer")]
        self.assertAlmostEqual(m.coverage_share(spans), 19 / 20)

    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(m.covered((0, 10), [(-5, 2), (1, 4), (6, 7), (9, 20)]), 6)
        self.assertEqual(m.covered((0, 10), [(12, 15)]), 0)


class HostTest(unittest.TestCase):
    def test_steal_share(self):
        self.assertAlmostEqual(m.steal_pct(1000, 10, 3000, 110), 5.0)
        self.assertEqual(m.steal_pct(1000, 10, 1000, 10), 0.0)


class KeptWindowsTest(unittest.TestCase):
    def rec(self, steal_per_window):
        # 400 jiffies per window (4 CPUs at USER_HZ 100).
        total, steal = [0], [0]
        for s in steal_per_window:
            total.append(total[-1] + 400)
            steal.append(steal[-1] + s)
        return {"window.cpu_total": total, "window.cpu_steal": steal}

    def test_windows_above_the_median_steal_are_left_out(self):
        import run
        # Shares 2 %, 10 %, 3 %, 25 %: the median is 6.5 %.
        self.assertEqual(run.kept_windows(self.rec([8, 40, 12, 100])), {0, 2})

    def test_a_quiet_run_keeps_every_window(self):
        import run
        # Shares 0 %, 0.5 %, 0 %, 0.75 %: all under the 1 % floor.
        self.assertEqual(run.kept_windows(self.rec([0, 2, 0, 3])), {0, 1, 2, 3})


class OpenLoopTest(unittest.TestCase):
    def rec(self, sched, done):
        return {"rate_per_s": 100.0, "window_s": 1.0, "windows": 2,
                "req.sched_s": sched, "req.done_s": done}

    def test_completions_that_keep_pace_are_valid(self):
        import run
        sched = [k / 100.0 for k in range(200)]
        self.assertEqual(run.open_loop_valid(self.rec(sched, [t + 0.005 for t in sched])),
                         (True, 1))

    def test_unanswered_requests_count_as_backlog(self):
        import run
        # 200 requests offered, the last 20 never answered: 20 behind at the
        # end, over the limit of 0.1 s x 100 req/s.
        sched = [k / 100.0 for k in range(200)]
        self.assertEqual(run.open_loop_valid(self.rec(sched, sched[:180])), (False, 20))


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def declared(self, section):
        return {e["name"]: e["unit"] for e in self.bench[section]}

    def test_every_declared_name_is_well_formed(self):
        for section in ("end_to_end", "per_layer"):
            for name in self.declared(section):
                self.assertRegex(name, m.NAME_RE)

    def test_run_py_emits_exactly_the_declared_end_to_end_metrics(self):
        import run
        rec = {
            "windows": 2, "window_s": 1.0,
            "batch.start_s": [0.0, 0.5, 1.0, 1.5], "batch.end_s": [0.5, 1.0, 1.5, 2.0],
            "batch.images": [8, 8, 8, 8], "batch.traced": [0, 0, 0, 0],
            "window.cpu_total": [0, 400, 800], "window.cpu_steal": [0, 0, 0],
            "attempted": 32, "failed": 0, "setup_s": [0.1, 0.2, 0.3], "peak_rss_mb": 10.0,
            "pool.energy_uj": 64.0, "pool.items": 32,
        }
        values = run.end_to_end(rec, "sim_float")
        result = {k: {"value": v[0], "unit": v[1]} for k, v in values.items()}
        self.assertEqual(m.validate_metrics(result, self.declared("end_to_end")), [])
        self.assertEqual(result["throughput_per_s"]["value"], 16.0)
        self.assertEqual(result["p50_ms"]["value"], 500.0)
        self.assertEqual(result["p90_ms"]["value"], 500.0)
        self.assertEqual(result["ok_pct"]["value"], 100.0)
        self.assertAlmostEqual(result["setup_s"]["value"], 0.2)

    def test_validation_rejects_undeclared_malformed_missing_and_nan(self):
        declared = {"a.b": "ms", "c": "s"}
        ok = {"a.b": {"value": 1.0, "unit": "ms"}, "c": {"value": 2, "unit": "s"}}
        self.assertEqual(m.validate_metrics(ok, declared), [])
        bad = {"a.b": {"value": float("nan"), "unit": "ms"}, "c d": {"value": 1, "unit": "s"},
               "e": {"value": 1, "unit": "s"}}
        problems = " | ".join(m.validate_metrics(bad, declared))
        self.assertIn("non-finite", problems)
        self.assertIn("malformed metric name 'c d'", problems)
        self.assertIn("'e' is not declared", problems)
        self.assertIn("'c' was not emitted", problems)
        wrong_unit = {"a.b": {"value": 1.0, "unit": "s"}, "c": {"value": 2, "unit": "s"}}
        self.assertIn("declared 'ms'", m.validate_metrics(wrong_unit, declared)[0])


if __name__ == "__main__":
    unittest.main()
