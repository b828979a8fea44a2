"""Tests for the benchmark's own arithmetic (benchlib.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib
from benchlib import INF


class TailRule(unittest.TestCase):
    def test_eleventh_largest_with_level_and_count(self):
        values = list(range(1, 101))  # 1..100
        value, level, n = benchlib.tail(values)
        self.assertEqual(value, 90)  # 91..100 lie beyond it
        self.assertEqual(n, 100)
        self.assertAlmostEqual(level, 90.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_level_rises_with_sample_count(self):
        self.assertAlmostEqual(benchlib.tail(list(range(1000)))[1], 99.0)
        self.assertAlmostEqual(benchlib.tail(list(range(20)))[1], 50.0)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        self.assertEqual(benchlib.tail(values)[0], 1.0)

    def test_needs_more_samples_than_beyond(self):
        with self.assertRaises(ValueError):
            benchlib.tail(list(range(10)))
        self.assertEqual(benchlib.tail(list(range(11)))[0], 0)

    def test_failure_counts_as_slowest(self):
        values = [1.0] * 20 + [INF] * 11
        self.assertEqual(benchlib.tail(values)[0], INF)


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.percentile(values, 50), 500)
        self.assertEqual(benchlib.percentile(values, 99), 990)
        self.assertEqual(benchlib.percentile(values, 100), 1000)
        self.assertEqual(benchlib.percentile([3.0], 99), 3.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 0)


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Request 1 was due at 1 ms but waited for a connection until 3 ms.
        due, ready, send, reply = [0.0, 1.0], [0.0, 3.0], [0.1, 3.2], [3.0, 4.0]
        latency, lateness = benchlib.open_loop(due, ready, send, reply, [True, True])
        self.assertAlmostEqual(latency[0], 3.0)
        self.assertAlmostEqual(latency[1], 3.0)  # 2 ms of it queued on the client
        self.assertAlmostEqual(lateness[0], 0.1)
        self.assertAlmostEqual(lateness[1], 0.2)  # counted from ready, not due

    def test_failed_request_is_infinitely_late(self):
        latency, _ = benchlib.open_loop([0.0], [0.0], [0.0], [1.0], [False])
        self.assertEqual(latency, [INF])
        self.assertEqual(benchlib.percentile([1.0] * 99 + latency, 100), INF)

    def test_backlog_at_last_due(self):
        due = [0.0, 1.0, 2.0, 3.0]
        self.assertEqual(benchlib.backlog_at_last_due(due, [0.5, 1.5, 2.5, 3.5]), 1)
        self.assertEqual(benchlib.backlog_at_last_due(due, [5.0, 6.0, 7.0, 8.0]), 4)


class CompletionRate(unittest.TestCase):
    def test_first_send_to_last_reply(self):
        # 4 replies between 1 ms (first send) and 5 ms (last reply).
        send, reply = [2.0, 1.0, 3.0, 4.0], [3.0, 2.0, 5.0, 4.5]
        self.assertAlmostEqual(benchlib.completion_rate(send, reply, [1, 1, 1, 1]), 1000.0)

    def test_failed_replies_take_time_but_do_not_count(self):
        send, reply = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]
        self.assertAlmostEqual(benchlib.completion_rate(send, reply, [1, 0, 1, 0]), 500.0)


class Ladder(unittest.TestCase):
    def rung(self, rate, latency_ms, n=1000):
        due = [1e3 * i / rate for i in range(n)]
        reply = [d + latency_ms for d in due]
        return due, reply

    def test_pass_fail_on_p99(self):
        due, reply = self.rung(1000.0, 1.0)
        lat = [r - d for d, r in zip(due, reply)]
        self.assertTrue(benchlib.rung_passes(1000.0, lat, due, reply, 5.0, 2))
        lat[-10:] = [6.0] * 10  # 1% over the limit: p99 still 1 ms
        self.assertTrue(benchlib.rung_passes(1000.0, lat, due, reply, 5.0, 2))
        lat[-11:] = [6.0] * 11  # 1.1% over: p99 is 6 ms
        self.assertFalse(benchlib.rung_passes(1000.0, lat, due, reply, 5.0, 2))

    def test_growing_backlog_fails_even_with_good_p99(self):
        # Latency grows along the rung: the queue builds up. p99 of the
        # reported latencies is kept under the limit on purpose.
        rate = 1000.0
        due = [1e3 * i / rate for i in range(1000)]
        reply = [d + 0.5 for d in due]
        last = due[-1]
        for i in range(980, 1000):
            reply[i] = last + 1.0  # 20 replies still outstanding at the end
        lat = [min(r - d, 4.0) for d, r in zip(due, reply)]
        self.assertLessEqual(benchlib.percentile(lat, 99), 5.0)
        self.assertEqual(benchlib.backlog_at_last_due(due, reply), 20)
        self.assertFalse(benchlib.rung_passes(rate, lat, due, reply, 5.0, 2))
        # Within rate x limit = 5 outstanding the rung passes.
        for i in range(980, 995):
            reply[i] = due[i] + 0.5
        self.assertTrue(benchlib.rung_passes(rate, lat, due, reply, 5.0, 2))

    def test_connections_floor_the_allowed_backlog(self):
        due, reply = [0.0, 0.001], [1.0, 1.0]
        lat = [1.0, 1.0]
        self.assertTrue(benchlib.rung_passes(1.0, lat, due, reply, 5.0, 2))
        self.assertFalse(benchlib.rung_passes(1.0, lat, due, reply, 5.0, 1))

    def test_qps_at_slo_picks_highest_passing_rate(self):
        rungs = [(400.0, True), (460.0, True), (529.0, False), (493.0, True),
                 (511.0, False)]
        self.assertEqual(benchlib.qps_at_slo(rungs), 493.0)
        self.assertIsNone(benchlib.qps_at_slo([(400.0, False)]))


class SelfTime(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = [("job", 0.0, 10.0, -1), ("a", 1.0, 3.0, 0), ("b", 4.0, 8.0, 0),
                 ("b.read", 5.0, 6.0, 2)]
        self.assertEqual(benchlib.self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 7.0, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 4.0)

    def test_children_clipped_to_parent(self):
        spans = [("p", 0.0, 4.0, -1), ("x", 2.0, 9.0, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 2.0)

    def test_per_op_layers_groups_by_operation(self):
        trace = {"names": ["job", "dfs.read", "setup", "datanet.digest"],
                 "spans": [[2, 0.0, 100.0, -1, 0],
                           [0, 1000.0, 3000.0, -1, 1],
                           [1, 1500.0, 2000.0, 1, 1],
                           [1, 2000.0, 2500.0, 1, 1],
                           [3, 3000.0, 3100.0, -1, 1],
                           [0, 4000.0, 5000.0, -1, 2]]}
        ops = benchlib.per_op_layers(trace, {"job"})
        self.assertEqual(sorted(ops), [1, 2])
        self.assertAlmostEqual(ops[1]["wall_ms"], 2.0)
        self.assertAlmostEqual(ops[1]["self_ms"]["job"], 1.0)
        self.assertAlmostEqual(ops[1]["total_ms"]["dfs.read"], 1.0)
        self.assertEqual(ops[1]["count"]["dfs.read"], 2)
        self.assertAlmostEqual(ops[1]["total_ms"]["datanet.digest"], 0.1)
        self.assertAlmostEqual(benchlib.median_of(list(ops.values()), "total_ms",
                                                  "dfs.read"), 0.5)
        self.assertEqual(list(benchlib.per_op_layers(trace, {"setup"})), [0])

    def test_overhead_pct(self):
        self.assertAlmostEqual(benchlib.overhead_pct([11.0, 11.0], [10.0, 10.0]), 10.0)
        self.assertEqual(benchlib.overhead_pct([], [1.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
