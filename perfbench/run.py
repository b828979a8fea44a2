#!/usr/bin/env python3
"""DataNet end-to-end benchmark.

    python3 perfbench/run.py --workload batch-hot|serve-zipf|ingest-query \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds datanet_perfbench from source (CMake,
Release) into $CARGO_TARGET_DIR (default .bench_build), runs one workload,
checks its results, prints every metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run (spans are dumped under <build>/traces/). See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-hot", "serve-zipf", "ingest-query")
PROGRAM_TIMEOUT_S = 160
# serve-zipf's latency limit for qps_at_slo: p99 of due-to-reply latency.
SLO_MS = 5.0


def metric_units(section):
    """name -> unit of BENCHMARK.json's `section` metrics, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


# Root span of one timed operation, per workload.
OP_ROOT = {"batch-hot": "job", "serve-zipf": "query", "ingest-query": "batch"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure and build datanet_perfbench; returns its path."""
    tree = os.path.join(out_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", tree, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(tree, "datanet_perfbench")


def run_program(binary, args, out_dir):
    work = os.path.join(out_dir, "work")
    traces = os.path.join(out_dir, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("datanet_perfbench did not finish within %d s" % PROGRAM_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("datanet_perfbench exited with code %d" % done.returncode)
    raw = json.loads(lines[-1])
    trace = None
    if args.trace:
        with open(trace_out) as f:
            trace = json.load(f)
    return raw, trace


def median(values):
    return statistics.median(values) if values else 0.0


def tail_note(name, values):
    if len(values) <= benchlib.TAIL_BEYOND:
        return "%s: too few samples for a tail (n=%d)" % (name, len(values))
    value, level, n = benchlib.tail(values)
    return ("%s = %.4f ms (p%.1f, %d samples beyond, n=%d)"
            % (name, value, level, benchlib.TAIL_BEYOND, n))


def tail_value(values):
    return benchlib.tail(values)[0] if len(values) > benchlib.TAIL_BEYOND else 0.0


# ---- end-to-end metrics (untraced run) ----

def batch_hot_e2e(raw, notes):
    jobs = raw["samples"]["job_ms"]
    notes.append("job_p50_ms = %.4f ms over %d jobs" % (median(jobs), len(jobs)))
    notes.append(tail_note("job_tail_ms", jobs))
    notes.append("sim_job_s = %.6f s (simulated selection + analysis)" % raw["sim_job_s"])
    return median(jobs), 1e3 / statistics.mean(jobs)


def serve_phase(phase):
    return benchlib.open_loop(phase["due_ms"], phase["ready_ms"], phase["send_ms"],
                              phase["reply_ms"], [x > 0 for x in phase["ok"]])


def serve_zipf_e2e(raw, notes):
    fixed = raw["samples"]["fixed"]
    latency, lateness = serve_phase(fixed)
    n = len(latency)
    p99 = benchlib.percentile(latency, 99)
    rates = [benchlib.completion_rate(seg["send_ms"], seg["reply_ms"], seg["ok"])
             for seg in raw["samples"]["saturation"]]
    capacity = median(rates)
    notes.append("query_p50_ms = %.4f ms at %.0f/s offered, n=%d"
                 % (benchlib.percentile(latency, 50), raw["fixed_rate"], n))
    notes.append("query_p99_ms = %.4f ms at %.0f/s offered, n=%d" % (p99, raw["fixed_rate"], n))
    notes.append("generator lateness p99 = %.4f ms" % benchlib.percentile(lateness, 99))
    notes.append("saturation throughput = %.1f correct replies/s, median of %d segments"
                 " (%.1f-%.1f)" % (capacity, len(rates), min(rates), max(rates)))
    return benchlib.percentile(latency, 50), capacity


def ingest_query_e2e(raw, notes):
    s = raw["samples"]
    fresh = s["freshness_ms"]
    rate = raw["counts"]["records"] / sum(s["append_s"])
    notes.append("ingest_records_per_s = %.1f records/s (%s)" % (rate, raw["journal_policy"]))
    notes.append("freshness_ms = %.4f ms median over %d batches" % (median(fresh), len(fresh)))
    notes.append(tail_note("freshness_tail_ms", fresh))
    return median(fresh), rate


E2E = {"batch-hot": batch_hot_e2e, "serve-zipf": serve_zipf_e2e,
       "ingest-query": ingest_query_e2e}


def end_to_end(workload, raw, notes):
    p50, throughput = E2E[workload](raw, notes)
    return {
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "op_p50_ms": p50,
        "throughput_per_s": throughput,
    }


# ---- per-layer metrics (traced run) ----

def per_layer(workload, raw, trace, notes, names):
    m = {name: 0.0 for name in names}
    s, c = raw["samples"], raw["counts"]
    setups = list(benchlib.per_op_layers(trace, {"setup"}).values())
    ops = list(benchlib.per_op_layers(trace, {OP_ROOT[workload]}).values())
    for layer, metric in (("workload.generate", "workload.generate_s"),
                          ("dfs.ingest", "dfs.ingest_s"),
                          ("elasticmap.build", "elasticmap.build_s")):
        m[metric] = benchlib.median_of(setups, "total_ms", layer) / 1e3
    traced = max(1, c["traced_ops"])
    m["dfs.read_calls"] = c["read_calls"] / traced
    m["dfs.read_mib"] = c["read_bytes"] / traced / 2**20
    m["dfs.read_ms"] = benchlib.median_of(ops, "total_ms", "dfs.read")
    m["dfs.remote_reads"] = c["remote_reads"] / traced
    if c["meta_raw_bytes"]:
        m["elasticmap.meta_bytes_per_mib"] = c["meta_memory_bytes"] / (c["meta_raw_bytes"] / 2**20)
    m["elasticmap.delta_ms"] = benchlib.median_of(ops, "total_ms", "elasticmap.delta")
    m["elasticmap.candidate_block_ratio"] = median(s["candidate_block_ratio"])
    m["datanet.graph_ms"] = benchlib.median_of(ops, "total_ms", "datanet.graph")
    m["scheduler.assign_ms"] = benchlib.median_of(ops, "total_ms", "scheduler.assign")
    m["datanet.select_ms"] = benchlib.median_of(ops, "total_ms", "datanet.run_graph")
    m["datanet.filter_ms"] = benchlib.median_of(ops, "self_ms", "datanet.run_graph")
    if m["datanet.filter_ms"] > 0:
        m["datanet.scan_mib_per_s"] = m["dfs.read_mib"] / (m["datanet.filter_ms"] / 1e3)
    m["datanet.match_ratio"] = median(s["match_ratio"])
    m["datanet.digest_ms"] = benchlib.median_of(ops, "total_ms", "datanet.digest")
    m["mapred.report_ms"] = benchlib.median_of(ops, "total_ms", "mapred.report")
    m["bench.unattributed_ms"] = benchlib.median_of(ops, "self_ms", OP_ROOT[workload])

    if workload == "batch-hot":
        m["scheduler.load_max_over_mean"] = median(s["load_max_over_mean"])
        m["scheduler.remote_tasks"] = median(s["remote_tasks"])
        m["mapred.analysis_ms"] = benchlib.median_of(ops, "total_ms", "mapred.analysis")
        m["mapred.map_wall_ms"] = median(s["map_wall_ms"])
        m["mapred.shuffle_reduce_wall_ms"] = median(s["shuffle_reduce_wall_ms"])
        m["mapred.sim_job_s"] = raw["sim_job_s"]
        m["bench.op_tail_ms"] = tail_value(s["job_ms"])
        m["bench.trace_overhead_pct"] = benchlib.overhead_pct(s["traced_job_ms"], s["job_ms"])
    elif workload == "serve-zipf":
        fixed = s["fixed"]
        latency, lateness = serve_phase(fixed)
        rtt = [r - x for r, x in zip(fixed["reply_ms"], fixed["send_ms"])]
        queue = [q / 1e3 for q in fixed["queue_us"]]
        service = [v / 1e3 for v in fixed["service_us"]]
        m["server.rtt_ms"] = median(rtt)
        m["server.queue_ms"] = median(queue)
        m["server.service_ms"] = median(service)
        m["server.wire_ms"] = median([r - q - v for r, q, v in zip(rtt, queue, service)])
        phases = [fixed] + s["saturation"] + s["ladder"]
        queries = max(1, sum(len(p["due_ms"]) for p in phases))
        m["server.cache_hits"] = c["cache_hits"] / queries
        m["server.cache_rebuilds"] = c["cache_rebuilds"] / queries
        m["server.rejected"] = c["rejected"]
        m["server.generator_late_ms"] = benchlib.percentile(lateness, 99)
        m["server.query_p99_ms"] = benchlib.percentile(latency, 99)
        rungs = []
        for r in s["ladder"]:
            lat, _ = serve_phase(r)
            ok = benchlib.rung_passes(r["rate"], lat, r["due_ms"], r["reply_ms"],
                                      SLO_MS, raw["env"]["threads"]["connections"])
            rungs.append((r["rate"], ok))
            notes.append("ladder rung %.1f/s: p99 %.4f ms, backlog %d, %s"
                         % (r["rate"], benchlib.percentile(lat, 99),
                            benchlib.backlog_at_last_due(r["due_ms"], r["reply_ms"]),
                            "pass" if ok else "fail"))
        m["server.qps_at_slo"] = benchlib.qps_at_slo(rungs) or 0.0
        m["bench.op_tail_ms"] = tail_value(latency)
        m["bench.trace_overhead_pct"] = benchlib.overhead_pct(s["traced_replay_ms"], s["replay_ms"])
    else:
        batches = max(1, c["batches"])
        m["dfs.group_commits"] = c["group_commits"] / batches
        m["dfs.journal_bytes_per_user_byte"] = c["journal_bytes"] / max(1, c["user_bytes"])
        m["server.cache_delta_applies"] = c["cache_delta_applies"] / batches
        m["server.cache_rebuilds"] = (c["cache_rebuilds"] - c["rounds"]) / batches
        m["bench.op_tail_ms"] = tail_value(s["freshness_ms"])
        m["bench.trace_overhead_pct"] = benchlib.overhead_pct(s["traced_freshness_ms"],
                                                              s["freshness_ms"])
    trace_summary(workload, setups, ops, m, notes)
    return m


def trace_summary(workload, setups, ops, m, notes):
    """Per-layer self time table of the traced run."""
    layers = sorted({k for op in ops for k in op["self_ms"]})
    wall = median([op["wall_ms"] for op in ops])
    notes.append("%s trace: %d operations, median wall %.4f ms; median self time by layer:"
                 % (workload, len(ops), wall))
    for layer in sorted(layers, key=lambda k: -benchlib.median_of(ops, "self_ms", k)):
        notes.append("  %-24s %10.4f ms  (x%.0f per op)"
                     % (layer, benchlib.median_of(ops, "self_ms", layer),
                        median([op["count"].get(layer, 0) for op in ops])))
    notes.append("  bench.unattributed_ms    %10.4f ms" % m["bench.unattributed_ms"])
    notes.append("  bench.trace_overhead_pct %10.4f %%" % m["bench.trace_overhead_pct"])
    setup_layers = sorted({k for op in setups for k in op["total_ms"]})
    notes.append("  set-up: " + ", ".join(
        "%s %.4f s" % (k, benchlib.median_of(setups, "total_ms", k) / 1e3)
        for k in setup_layers))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    started = time.monotonic()
    out_dir = build_dir()
    binary = build(out_dir)
    raw, trace = run_program(binary, args, out_dir)

    env = raw["env"]
    notes = ["workload %s seed %d: nproc %d, build %s, scan kernel %s, threads %s"
             % (args.workload, args.seed, env["nproc"], env["build_type"],
                env["scan_kernel"], json.dumps(env["threads"], sort_keys=True))]
    if args.trace:
        units = metric_units("per_layer")
        values = per_layer(args.workload, raw, trace, notes, units)
    else:
        units = metric_units("end_to_end")
        values = end_to_end(args.workload, raw, notes)
    bad = [name for name in units if not math.isfinite(values[name])]
    if bad:
        fail("no finite value for " + ", ".join(bad) + "; errors: " + "; ".join(raw["errors"]))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for line in notes:
        print(line)
    for name, unit in units.items():
        print("%-34s %16.6f %s" % (name, values[name], unit))
    for err in raw["errors"]:
        print("error: " + err)
    print("elapsed %.1f s" % (time.monotonic() - started))
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
