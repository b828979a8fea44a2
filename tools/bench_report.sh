#!/usr/bin/env bash
# Build and run the machine-readable benchmark report, writing BENCH_PR10.json
# at the repo root: Fig. 5 selection wall time + simulated report totals for
# both schedulers, the Fig. 7 shuffle speedups, the straggler-tail
# attempt/timeout/speculation numbers, and the ReplicationMonitor MTTR sweep
# over repair rates, the hot-path section (filter_lines scan throughput,
# engine thread sweep), the PR 7
# server section (datanetd loopback qps + latency percentiles, digests
# checked against golden in-process runs), and the PR 8 metadata section
# (ring lookup throughput, shard balance + kill-one-shard recovery over a
# 1/4/16 shard sweep, placement determinism, client lease-cache hit rate),
# and the PR 9 resilience section (chaos-proxied serving through the
# retrying client across a crash/degrade/recover cycle: outcome split and
# goodput, with the golden/degraded/typed contract checked), and the PR 10
# ingest section (journaled group-commit append throughput, delta-apply vs
# full-rebuild map maintenance, chi-drift vs drain interval).
# Wall times depend on the host; the simulated totals are bit-for-bit
# reproducible.
#
# Usage: tools/bench_report.sh [build-dir] (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/${1:-build}"

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" --target bench_report >/dev/null

out="${repo_root}/BENCH_PR10.json"
"${build_dir}/tools/bench_report" > "${out}"
echo "wrote ${out}"
