"""Tests of the benchmark's own aggregation: percentiles and their sample
counts, failure counting, and the thread guard.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def fabric_call(frames=100, fallbacks=10, ber=0.25, **over):
    call = {"frames": frames, "expected_frames": frames, "call_s": 0.05, "cpu_s": 0.04,
            "fallbacks": fallbacks, "ber": ber}
    call.update(over)
    return call


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_sample_count(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        self.assertEqual(run.percentile(values, 50), (50, 100))
        self.assertEqual(run.percentile(values, 99), (99, 100))
        self.assertEqual(run.percentile(values, 100), (100, 100))
        self.assertEqual(run.percentile(values, 0), (1, 100))

    def test_single_sample(self):
        self.assertEqual(run.percentile([7.5], 99), (7.5, 1))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class FailureCountTest(unittest.TestCase):
    def test_detect_ra_counts_its_own_bad_decisions(self):
        self.assertEqual(run.count_failures("detect-ra", {"frames": 500, "failed": 3}), (500, 3))

    def test_clean_fabric_run_has_no_failures(self):
        calls = [fabric_call(replay_ber=0.25), fabric_call(frames=50)]
        self.assertEqual(run.count_failures("fabric-hybrid", {"calls": calls}), (150, 0))

    def test_fallbacks_are_not_failures(self):
        calls = [fabric_call(fallbacks=100)]
        self.assertEqual(run.count_failures("fabric-hybrid", {"calls": calls}), (100, 0))

    def test_missing_frames_fail_the_whole_call(self):
        calls = [fabric_call(), fabric_call(frames=39, expected_frames=40)]
        self.assertEqual(run.count_failures("fabric-hybrid", {"calls": calls}), (140, 40))

    def test_replay_must_match_bit_for_bit(self):
        ber = 0.1 + 0.2
        calls = [fabric_call(ber=ber, replay_ber=0.3), fabric_call(ber=ber, replay_ber=ber)]
        self.assertNotEqual(ber, 0.3)
        self.assertEqual(run.count_failures("fabric-hybrid", {"calls": calls}), (200, 100))


class ThreadGuardTest(unittest.TestCase):
    ok = {"producers": 1, "queue_shards": 1, "backend_lanes": 2, "threads": [1, 1]}

    def test_allowed_topology(self):
        self.assertEqual(run.thread_guard(self.ok, nproc=2), [])

    def test_each_violation_is_reported(self):
        cases = [
            ({"producers": 2}, "producers"),
            ({"queue_shards": 2}, "queue shards"),
            ({"backend_lanes": 4}, "busy backend lanes"),
            ({"threads": [1, 0]}, "threads"),
            ({"threads": [2]}, "threads"),
        ]
        for change, word in cases:
            problems = run.thread_guard(dict(self.ok, **change), nproc=2)
            self.assertEqual(len(problems), 1, change)
            self.assertIn(word, problems[0])

    def test_lanes_are_judged_against_nproc(self):
        self.assertEqual(len(run.thread_guard(self.ok, nproc=1)), 1)
        self.assertEqual(run.thread_guard(dict(self.ok, backend_lanes=4), nproc=4), [])


class EndToEndTest(unittest.TestCase):
    def test_fast_percentile(self):
        times = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(run.fast_percentile(times), (float(run.FAST_PCT), 100))

    def test_detect_ra_timings_are_the_fast_end_of_frames(self):
        fast = run.FAST_PCT
        doc = {"frames": 100, "failed": 0, "peak_rss_kb": 2048, "ber": 0.01,
               "frame_us": [1250.0] * fast + [3000.0] * (100 - fast),
               "frame_cpu_us": [900.0] * fast + [1800.0] * (100 - fast)}
        m = run.end_to_end("detect-ra", doc, [0.3, 0.1, 0.2])
        self.assertEqual(m["setup_s"], (0.2, "s", 3))
        self.assertEqual(m["frames_per_sec"], (800.0, "1/s", 100))
        self.assertEqual(m["cpu_us_per_frame"], (900.0, "us", 100))
        self.assertEqual(m["peak_rss_mb"], (2.0, "MiB", 1))
        self.assertEqual(m["served_rate"], (1.0, "ratio", 100))
        self.assertEqual(m["ber"], (0.01, "ratio", 100))

    def test_fabric_timings_are_the_fast_end_of_calls(self):
        calls = [fabric_call(frames=100, fallbacks=10, ber=0.2, call_s=0.1, cpu_s=0.08),
                 fabric_call(frames=300, fallbacks=30, ber=0.4, call_s=0.15, cpu_s=0.12)]
        calls += [fabric_call(call_s=1.0, cpu_s=1.0) for _ in range(98)]
        doc = {"peak_rss_kb": 1024, "calls": calls}
        m = run.end_to_end("fabric-hybrid", doc, [0.5])
        # Per-frame times: 500 us and 1000 us fast, 10,000 us for the rest.
        self.assertEqual(m["frames_per_sec"], (1000.0, "1/s", 100))
        self.assertEqual(m["cpu_us_per_frame"], (800.0, "us", 100))
        frames = 100 + 300 + 98 * 100
        self.assertAlmostEqual(m["served_rate"][0], 0.9)
        self.assertEqual(m["served_rate"][2], frames)
        self.assertAlmostEqual(m["ber"][0], (0.2 * 100 + 0.4 * 300 + 0.25 * 9800) / frames)

    def test_metrics_match_benchmark_json(self):
        doc = {"peak_rss_kb": 1024, "calls": [fabric_call()]}
        m = run.end_to_end("fabric-hybrid", doc, [0.5])
        self.assertEqual({k: v[1] for k, v in m.items()}, run.declared("end_to_end"))


class TraceLayersTest(unittest.TestCase):
    def test_stage_percentiles_util_and_depth(self):
        events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {"name": "p"}}]
        for stage in run.STAGES:
            for dur in (1.0, 2.0, 3.0):
                events.append({"ph": "X", "cat": "stage", "name": stage, "dur": dur})
        events.append({"ph": "X", "cat": "batch", "name": "sa-pool", "dur": 99.0})
        events.append({"ph": "C", "name": "utilization", "args": {"sa-pool": 0.2}})
        events.append({"ph": "C", "name": "utilization", "args": {"sa-pool": 0.4}})
        events.append({"ph": "C", "name": "queues", "args": {"delivery": 3, "fallback": 0}})
        events.append({"ph": "C", "name": "queues", "args": {"delivery": 1, "fallback": 0}})
        m = run.trace_layers({"traceEvents": events}, "w")
        self.assertEqual(m["rt.stage.wait_us.p50.w"], (2.0, "us", 3))
        self.assertEqual(m["rt.stage.solve_us.p99.w"], (3.0, "us", 3))
        self.assertAlmostEqual(m["rt.util.sa-pool.w"][0], 0.3)
        self.assertEqual(m["rt.depth_max.delivery.w"][0], 3)
        self.assertEqual(m["rt.depth_max.fallback.w"][0], 0)
        self.assertEqual(len(m), 2 * len(run.STAGES) + 3)


if __name__ == "__main__":
    unittest.main()
