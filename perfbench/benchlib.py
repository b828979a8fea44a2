"""Arithmetic of the benchmark: percentiles, the tail rule, open-loop
latency, completion rate, the qps-at-SLO ladder choice and span self
times.

datanet_perfbench prints raw measurements; run.py calls these functions to
turn them into metrics. Everything here is pure and covered by
test_benchlib.py (python3 -m unittest discover -s perfbench).
"""

import math
import statistics

INF = float("inf")

# Fewest samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it. `values` may hold INF (failed operations)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile level must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail(values, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples beyond it.

    Returns (value, level, count): the (beyond+1)-th largest sample, the
    percentile level it sits at, and the sample count."""
    n = len(values)
    if n <= beyond:
        raise ValueError("tail needs more than %d samples, got %d" % (beyond, n))
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def open_loop(due, ready, send, reply, ok):
    """Per-request latency and generator lateness of an open-loop phase.

    Latency runs from when a request was due to its reply, so a stall also
    charges the requests queued behind it; a failed request counts as
    infinitely late. Lateness is how long after the request could have gone
    out (due, or when a connection freed up) the generator sent it."""
    latency = [r - d if good else INF for d, r, good in zip(due, reply, ok)]
    lateness = [s - r for r, s in zip(ready, send)]
    return latency, lateness


def backlog_at_last_due(due, reply):
    """Requests still unanswered when the phase's last request fell due."""
    last = due[-1]
    return sum(1 for d, r in zip(due, reply) if d <= last and r > last)


def completion_rate(send, reply, ok):
    """Correct replies per second of a phase, from its first send to its
    last reply (times in ms). Failed requests take time but do not count."""
    span_s = (max(reply) - min(send)) / 1e3
    return sum(1 for good in ok if good) / span_s


def rung_passes(rate, latency, due, reply, slo_ms, connections):
    """A ladder rung passes when its p99 latency is within the limit and no
    backlog grew: at the last due time no more requests are outstanding
    than `rate` x `slo_ms` (Little's law at the limit), and never fewer than
    the connections allow."""
    allowed = max(connections, math.ceil(rate * slo_ms / 1000.0))
    return (percentile(latency, 99) <= slo_ms
            and backlog_at_last_due(due, reply) <= allowed)


def qps_at_slo(rungs):
    """Highest passing rate of the ladder. `rungs` is a list of
    (rate, passed) pairs; None when no rung passed."""
    passed = [rate for rate, ok in rungs if ok]
    return max(passed) if passed else None


def self_times(spans):
    """Self time of every span: its length minus the part of it that its
    children cover (overlapping children are counted once).

    `spans` is a list of (name, start, end, parent) with parent an index
    into the list or -1. Returns a list of self times, index-aligned."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if ce <= cs:
                continue
            if cur_end is None or cs > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = cs, ce
            else:
                cur_end = max(cur_end, ce)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def per_op_layers(trace, roots):
    """Per-operation span lengths and self times, by layer.

    `trace` is the program's span dump ({"names": [...], "spans": [[name,
    start_us, end_us, parent, op], ...]}). An operation is kept when one of
    its root spans is named in `roots`; its wall time is the length of those
    roots, and the roots' self time is the part no layer accounts for.
    Returns {op: {"wall_ms": x, "self_ms": {layer: ms}, "total_ms": {layer:
    ms}, "count": {layer: n}}}."""
    names = trace["names"]
    spans = [(names[s[0]], s[1], s[2], s[3]) for s in trace["spans"]]
    ops = {}
    for (name, start, end, parent), self_us, raw in zip(
            spans, self_times(spans), trace["spans"]):
        op = ops.setdefault(raw[4], {"kept": False, "wall_ms": 0.0,
                                     "self_ms": {}, "total_ms": {}, "count": {}})
        if parent < 0 and name in roots:
            op["kept"] = True
            op["wall_ms"] += (end - start) / 1e3
        op["self_ms"][name] = op["self_ms"].get(name, 0.0) + self_us / 1e3
        op["total_ms"][name] = op["total_ms"].get(name, 0.0) + (end - start) / 1e3
        op["count"][name] = op["count"].get(name, 0) + 1
    return {k: v for k, v in ops.items() if v.pop("kept")}


def median_of(ops, field, layer):
    """Median over operations of one layer's per-operation figure (0 for
    operations without that layer)."""
    if not ops:
        return 0.0
    return statistics.median(op[field].get(layer, 0.0) for op in ops)


def overhead_pct(traced, plain):
    """How much slower the traced operations ran than the plain ones, in
    percent of the plain median."""
    if not traced or not plain:
        return 0.0
    base = statistics.median(plain)
    return 100.0 * (statistics.median(traced) - base) / base
