// Machine-readable benchmark report for CI and PR review: runs the Fig. 5
// (movie, 256 blocks) selection under both schedulers through the
// SelectionRuntime, the Fig. 7 shuffle comparison over the same filtered
// data, a straggler-tail experiment (stalled nodes + transient read errors,
// timeout-only recovery vs speculation), and an MTTR experiment (node kills
// healed by the background ReplicationMonitor at a sweep of repair rates),
// a hot-path section (filter_lines scan throughput and the engine thread
// sweep, see bench_hotpath),
// and emits one JSON document with measured selection wall time (host clock)
// a server section (datanetd loopback qps + latency percentiles with served
// digests checked against golden in-process runs — PR 7, see bench_server),
// a metadata section (ring lookup throughput, shard balance and
// kill-one-shard recovery wall over a 1/4/16 shard sweep, client lease-cache
// hit rate — PR 8's sharded metadata plane), a resilience section (serving
// through a seeded ChaosProxy via the retrying client across a
// crash/degrade/recover cycle — PR 9, see chaos_drill), an ingest section
// (journaled group-commit append throughput, delta-apply vs full-rebuild
// map maintenance wall, and the chi-drift-vs-maintenance-interval curve —
// PR 10's streaming ingestion), plus the deterministic simulated report
// totals. Redirect to BENCH_PR10.json via tools/bench_report.sh.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "apps/topk_search.hpp"
#include "apps/word_count.hpp"
#include "datanet/selection_runtime.hpp"
#include "dfs/edit_log.hpp"
#include "dfs/fault_injector.hpp"
#include "dfs/fsck.hpp"
#include "dfs/hash_ring.hpp"
#include "dfs/ingest.hpp"
#include "dfs/meta_client.hpp"
#include "dfs/meta_plane.hpp"
#include "dfs/replication_monitor.hpp"
#include "elasticmap/live_map.hpp"
#include "mapred/report_json.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/locality.hpp"
#include "server/chaos_proxy.hpp"
#include "server/client.hpp"
#include "server/resilient_client.hpp"
#include "server/server.hpp"
#include "stats/descriptive.hpp"
#include "workload/dataset.hpp"
#include "workload/movie_gen.hpp"
#include "workload/record.hpp"

namespace {

datanet::core::ExperimentConfig paper_config() {
  datanet::core::ExperimentConfig cfg;  // same setup as bench_util.hpp
  cfg.num_nodes = 32;
  cfg.block_size = 128 * 1024;
  cfg.replication = 3;
  cfg.slots_per_node = 2;
  cfg.seed = 2016;
  return cfg;
}

struct TimedSelection {
  datanet::core::SelectionResult result;
  double wall_seconds = 0.0;
};

TimedSelection timed_selection(const datanet::core::StoredDataset& ds,
                               const std::string& key,
                               datanet::scheduler::TaskScheduler& sched,
                               const datanet::core::DataNet* net,
                               const datanet::core::ExperimentConfig& cfg) {
  datanet::core::DirectReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
  datanet::core::NoFaults faults;
  datanet::core::AnalyticBackend timing;
  const datanet::core::SelectionRuntime runtime(read, faults, timing);
  // Best-of-3 wall clock (the run itself is deterministic, so repeats are
  // free of state effects; the min damps shared-host scheduler noise).
  TimedSelection t;
  t.wall_seconds = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    t.result = runtime.run(*ds.dfs, ds.path, key, sched, net, cfg);
    t.wall_seconds = std::min(
        t.wall_seconds,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  return t;
}

// Best-of-N wall clock: smooths host scheduler noise better than one shot.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count());
  }
  return best;
}

double max_over_mean(const std::vector<std::uint64_t>& v) {
  std::vector<double> d(v.begin(), v.end());
  return datanet::stats::summarize(d).max_over_mean();
}

void emit_selection(const char* name, const TimedSelection& t, bool last) {
  std::printf(
      "    \"%s\": {\n"
      "      \"selection_wall_seconds\": %.6f,\n"
      "      \"selection_sim_total_seconds\": %.6f,\n"
      "      \"map_phase_seconds\": %.6f,\n"
      "      \"input_bytes\": %llu,\n"
      "      \"filtered_max_over_mean\": %.4f,\n"
      "      \"local_tasks\": %llu,\n"
      "      \"remote_tasks\": %llu,\n"
      "      \"blocks_scanned\": %llu\n"
      "    }%s\n",
      name, t.wall_seconds, t.result.report.total_seconds,
      t.result.report.map_phase_seconds,
      static_cast<unsigned long long>(t.result.report.input_bytes),
      max_over_mean(t.result.node_filtered_bytes),
      static_cast<unsigned long long>(t.result.assignment.local_tasks),
      static_cast<unsigned long long>(t.result.assignment.remote_tasks),
      static_cast<unsigned long long>(t.result.blocks_scanned),
      last ? "" : ",");
}

}  // namespace

int main() {
  using namespace datanet;
  const auto cfg = paper_config();
  auto ds = core::make_movie_dataset(cfg, 256, 2000);
  const std::string key = ds.hot_keys[0];
  const core::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});

  scheduler::LocalityScheduler base(7);
  const auto loc = timed_selection(ds, key, base, nullptr, cfg);
  scheduler::DataNetScheduler dn;
  const auto with = timed_selection(ds, key, dn, &net, cfg);

  std::printf("{\n");
  std::printf(
      "  \"config\": {\"num_nodes\": %u, \"block_size\": %llu, "
      "\"replication\": %u, \"slots_per_node\": %u, \"seed\": %llu},\n",
      cfg.num_nodes, static_cast<unsigned long long>(cfg.block_size),
      cfg.replication, cfg.slots_per_node,
      static_cast<unsigned long long>(cfg.seed));
  std::printf("  \"fig5_movie_selection\": {\n");
  emit_selection("locality", loc, false);
  emit_selection("datanet", with, true);
  std::printf("  },\n");

  // Fig. 7: shuffle-phase means over the two selections' filtered data.
  std::printf("  \"fig7_shuffle\": {\n");
  const auto shuffle = [&](const char* name, const mapred::Job& job,
                           bool last) {
    const auto without = core::run_analysis(job, loc.result, cfg);
    const auto withdn = core::run_analysis(job, with.result, cfg);
    const auto swo = stats::summarize(without.shuffle_task_seconds);
    const auto swi = stats::summarize(withdn.shuffle_task_seconds);
    std::printf(
        "    \"%s\": {\"without_mean_seconds\": %.6f, "
        "\"with_mean_seconds\": %.6f, \"speedup\": %.4f}%s\n",
        name, swo.mean, swi.mean, swo.mean / swi.mean, last ? "" : ",");
  };
  shuffle("WordCount", apps::make_word_count_job(), false);
  shuffle("TopKSearch", apps::make_topk_search_job("a stunning film", 10),
          true);
  std::printf("  },\n");

  // Straggler tail: two nodes stall immediately and two blocks throw
  // transient read errors. Stalls and transients never touch DFS state, so
  // the runs share the dataset; each gets a fresh injector. Everything here
  // is simulated-clock deterministic.
  const auto straggler = [&](bool speculative) {
    const auto blocks = ds.dfs->blocks_of(ds.path);
    std::vector<dfs::FaultEvent> plan;
    plan.push_back(
        {.at_task = 0, .kind = dfs::FaultKind::kStallNode, .node = 1});
    plan.push_back(
        {.at_task = 0, .kind = dfs::FaultKind::kStallNode, .node = 2});
    // Armed before any read, on mid-file blocks the hot key is dense in.
    plan.push_back({.at_task = 0,
                    .kind = dfs::FaultKind::kTransientReadError,
                    .block = blocks[blocks.size() / 2],
                    .fail_count = 2});
    plan.push_back({.at_task = 0,
                    .kind = dfs::FaultKind::kTransientReadError,
                    .block = blocks[blocks.size() / 2 + 1],
                    .fail_count = 2});
    dfs::FaultInjector injector(*ds.dfs, std::move(plan));
    core::AttemptOptions aopt;
    aopt.speculative = speculative;
    // With the short default deadline, timeouts always beat the drain point
    // and speculation never gets a turn; the speculative configuration uses
    // a patient deadline so the duplicates race the stall instead.
    if (speculative) aopt.timeout_ticks = 1000;
    core::ChecksumRetryReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
    core::InjectedFaults faults(injector);
    core::AnalyticBackend timing;
    scheduler::DataNetScheduler sched;
    return core::SelectionRuntime(read, faults, timing, aopt)
        .run(*ds.dfs, ds.path, key, sched, &net, cfg);
  };
  const auto emit_attempts = [](const char* name,
                                const core::SelectionResult& r, bool last) {
    const auto& a = r.report.attempts;
    std::printf(
        "    \"%s\": {\n"
        "      \"total_seconds\": %.6f,\n"
        "      \"attempts\": %llu,\n"
        "      \"timeouts\": %llu,\n"
        "      \"transient_retries\": %llu,\n"
        "      \"redispatches\": %llu,\n"
        "      \"speculative_launched\": %llu,\n"
        "      \"speculative_wins\": %llu,\n"
        "      \"degraded_tasks\": %llu\n"
        "    }%s\n",
        name, r.report.total_seconds,
        static_cast<unsigned long long>(a.attempts),
        static_cast<unsigned long long>(a.timeouts),
        static_cast<unsigned long long>(a.transient_retries),
        static_cast<unsigned long long>(a.redispatches),
        static_cast<unsigned long long>(a.speculative_launched),
        static_cast<unsigned long long>(a.speculative_wins),
        static_cast<unsigned long long>(a.degraded_tasks), last ? "" : ",");
  };
  const auto tail_timeout = straggler(/*speculative=*/false);
  const auto tail_spec = straggler(/*speculative=*/true);
  std::printf("  \"straggler_tail\": {\n");
  std::printf("    \"clean_total_seconds\": %.6f,\n",
              with.result.report.total_seconds);
  emit_attempts("timeout_only", tail_timeout, false);
  emit_attempts("speculation", tail_spec, true);
  std::printf("  },\n");

  // MTTR: kill 4 of 32 nodes on a deferred-repair cluster, then let the
  // background ReplicationMonitor drain the backlog at increasing repair
  // rates. The damage is identical per rate (same dataset seed, same kills),
  // so ticks-to-heal and the summed/mean MTTR isolate the rate limit.
  std::printf("  \"mttr_by_repair_rate\": {\n");
  const std::uint32_t rates[] = {1, 2, 4, 8, 16};
  for (std::size_t i = 0; i < std::size(rates); ++i) {
    auto mcfg = paper_config();
    mcfg.inline_repair = false;
    auto mds = core::make_movie_dataset(mcfg, 64, 2000);
    for (const dfs::NodeId n : {3u, 11u, 19u, 27u}) {
      (void)mds.dfs->decommission(n);
    }
    const auto damaged = dfs::fsck(*mds.dfs).under_replicated;
    dfs::ReplicationMonitor monitor(*mds.dfs,
                                    {.max_repairs_per_tick = rates[i]});
    const auto ticks = monitor.drain();
    const auto& ms = monitor.stats();
    const bool clean = dfs::fsck(*mds.dfs).healthy();
    std::printf(
        "    \"rate_%u\": {\"under_replicated\": %llu, "
        "\"ticks_to_heal\": %llu, \"healed_blocks\": %llu, "
        "\"repairs\": %llu, \"mttr_ticks\": %llu, "
        "\"mean_mttr_ticks\": %.4f, \"fsck_clean\": %s}%s\n",
        rates[i], static_cast<unsigned long long>(damaged),
        static_cast<unsigned long long>(ticks),
        static_cast<unsigned long long>(ms.healed_blocks),
        static_cast<unsigned long long>(ms.repairs),
        static_cast<unsigned long long>(ms.mttr_ticks),
        ms.healed_blocks == 0
            ? 0.0
            : static_cast<double>(ms.mttr_ticks) /
                  static_cast<double>(ms.healed_blocks),
        clean ? "true" : "false", i + 1 == std::size(rates) ? "" : ",");
  }
  std::printf("  },\n");

  // Hot path: filter_lines scan throughput over the movie corpus and the
  // engine thread sweep. Wall-clock values only.
  std::printf("  \"hotpath\": {\n");
  const auto& blocks = ds.dfs->blocks_of(ds.path);
  std::uint64_t corpus_bytes = 0;
  for (const dfs::BlockId b : blocks) {
    corpus_bytes += ds.dfs->read_block(b).size();
  }
  const double corpus_mib = static_cast<double>(corpus_bytes) / (1 << 20);
  const double filter_secs = best_of(5, [&] {
    std::string out;
    for (const dfs::BlockId b : blocks) {
      out.clear();
      (void)core::filter_lines(ds.dfs->read_block(b), key, out);
    }
  });
  std::printf("    \"filter_mib_per_s\": %.1f,\n", corpus_mib / filter_secs);
  scheduler::DataNetScheduler hp_sched;
  std::printf("    \"thread_sweep_wall_seconds\": {");
  bool first = true;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    auto tcfg = cfg;
    tcfg.execution_threads = threads;
    const double secs = best_of(3, [&] {
      core::DirectReadPolicy read(*ds.dfs, cfg.remote_read_penalty);
      core::NoFaults faults;
      core::AnalyticBackend timing;
      (void)core::SelectionRuntime(read, faults, timing)
          .run(*ds.dfs, ds.path, key, hp_sched, &net, tcfg);
    });
    std::printf("%s\"%u\": %.6f", first ? "" : ", ", threads, secs);
    first = false;
  }
  std::printf("}\n");
  std::printf("  },\n");

  // Server (PR 7): the datanetd loopback serving path — qps and
  // client-observed latency percentiles with every served digest checked
  // against the in-process golden run (see bench_server for the
  // human-readable twin). Wall-clock values; digests_verified is the
  // deterministic field.
  std::printf("  \"server\": {\n");
  {
    server::ServerOptions sopts;
    sopts.workers = 4;
    sopts.default_limits = {.max_queue = 256, .max_inflight = 16, .weight = 1};
    sopts.cfg.num_nodes = 16;
    sopts.cfg.block_size = 64 * 1024;
    sopts.cfg.replication = 3;
    sopts.cfg.seed = 42;
    sopts.dataset_blocks = 32;
    server::Server srv(sopts);
    srv.start();
    const auto& hot = srv.dataset().hot_keys;
    std::vector<std::uint64_t> golden;
    for (const auto& hkey : hot) {
      server::QueryRequest req;
      req.tenant = "golden";
      req.key = hkey;
      const auto out = server::local_query(sopts, req);
      golden.push_back(out.ok ? out.reply.digest : 0);
    }
    constexpr int kTenants = 4;
    constexpr int kPerTenant = 200;
    std::vector<std::vector<double>> lat(kTenants);
    std::atomic<std::uint64_t> ok{0}, mismatched{0};
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> tenants;
      for (int t = 0; t < kTenants; ++t) {
        tenants.emplace_back([&, t] {
          server::Client client(srv.port());
          for (int q = 0; q < kPerTenant; ++q) {
            const std::size_t ki = q % 5 == 0 ? (q / 5) % hot.size() : 0;
            server::QueryRequest req;
            req.tenant = "tenant_" + std::to_string(t);
            req.key = hot[ki];
            const auto q0 = std::chrono::steady_clock::now();
            const auto result = client.query(req);
            lat[t].push_back(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - q0)
                                 .count());
            if (result.ok() && result.reply.digest == golden[ki]) {
              ok.fetch_add(1, std::memory_order_relaxed);
            } else {
              mismatched.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      for (auto& t : tenants) t.join();
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    srv.stop();
    std::vector<double> all;
    for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    const auto pct = [&](double p) {
      return all.empty()
                 ? 0.0
                 : all[static_cast<std::size_t>(p * (all.size() - 1))];
    };
    std::printf("    \"tenants\": %d,\n", kTenants);
    std::printf("    \"queries\": %d,\n", kTenants * kPerTenant);
    std::printf("    \"qps\": %.0f,\n",
                wall > 0 ? static_cast<double>(ok.load()) / wall : 0.0);
    std::printf("    \"p50_micros\": %.0f,\n", pct(0.50));
    std::printf("    \"p99_micros\": %.0f,\n", pct(0.99));
    std::printf("    \"digests_verified\": %s\n",
                mismatched.load() == 0 ? "true" : "false");
  }
  std::printf("  },\n");

  // Metadata plane (PR 8): pure ring routing throughput, a 1/4/16 shard
  // sweep (per-shard block balance, kill-one-shard recovery wall time), the
  // client lease-cache hit rate, and placement_identical — the deterministic
  // field: the same file must get byte-identical placement at every shard
  // count (the digest contract behind serve --meta-shards).
  std::printf("  \"metadata\": {\n");
  {
    dfs::DfsOptions dopt;
    dopt.block_size = 16 * 1024;
    dopt.replication = 3;
    dopt.seed = 42;

    const dfs::HashRing ring16(16);
    std::uint64_t sink = 0;
    constexpr std::uint64_t kLookups = 2'000'000;
    const double ring_secs = best_of(3, [&] {
      for (std::uint64_t i = 0; i < kLookups; ++i) {
        sink += ring16.shard_of_block(i);
      }
    });
    static volatile std::uint64_t guard;
    guard = sink;
    (void)guard;
    std::printf("    \"ring_lookups_per_sec\": %.0f,\n",
                ring_secs > 0 ? static_cast<double>(kLookups) / ring_secs
                              : 0.0);

    const auto bench_dir =
        std::filesystem::temp_directory_path() / "datanet_bench_meta";
    constexpr std::uint32_t kFiles = 64;
    const auto write_bench_file = [](dfs::MetaPlane& plane,
                                     const std::string& path) {
      auto w = plane.create(path);
      for (int r = 0; r < 24; ++r) {
        w.append("bench-record-" + std::to_string(r) + "-payload-xxxxxxxx");
      }
      w.close();
    };

    std::vector<dfs::NodeId> placement1;  // first block of /bench/f0 at S=1
    bool identical = true;
    std::printf("    \"shard_sweep\": {\n");
    const std::uint32_t sweep[] = {1, 4, 16};
    for (std::size_t si = 0; si < 3; ++si) {
      dfs::MetaPlaneOptions popt;
      popt.num_shards = sweep[si];
      popt.dfs = dopt;
      dfs::MetaPlane plane(dfs::ClusterTopology::flat(16), popt);
      for (std::uint32_t f = 0; f < kFiles; ++f) {
        write_bench_file(plane, "/bench/f" + std::to_string(f));
      }
      const auto& first = plane.dfs_for("/bench/f0");
      const auto probe =
          first.replicas_snapshot(first.blocks_of("/bench/f0").front());
      if (si == 0) {
        placement1 = probe;
      } else if (probe != placement1) {
        identical = false;
      }

      std::vector<std::uint64_t> blocks;
      for (std::uint32_t s = 0; s < plane.num_shards(); ++s) {
        blocks.push_back(plane.dfs(s).num_blocks());
      }

      std::filesystem::remove_all(bench_dir);
      std::filesystem::create_directories(bench_dir);
      plane.attach_journals(bench_dir.string());
      write_bench_file(plane, "/bench/late");  // journal suffix to replay
      const std::uint32_t victim = plane.shard_of("/bench/late");
      const auto t0 = std::chrono::steady_clock::now();
      plane.crash_shard(victim);
      (void)plane.recover_shard(victim);
      const double recover_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      std::printf(
          "      \"%u\": {\"files\": %u, \"blocks_max_over_mean\": %.4f, "
          "\"recover_one_shard_ms\": %.3f}%s\n",
          sweep[si], kFiles + 1, max_over_mean(blocks), recover_ms,
          si + 1 < 3 ? "," : "");
    }
    std::printf("    },\n");
    std::filesystem::remove_all(bench_dir);
    std::printf("    \"placement_identical\": %s,\n",
                identical ? "true" : "false");

    // Lease hit rate: 16 hot files over a 4-shard plane, one access per file
    // per tick, 16-tick leases — the steady-state mix of lease hits vs
    // renewals vs refetches a long-lived client sees.
    dfs::MetaPlaneOptions popt;
    popt.num_shards = 4;
    popt.dfs = dopt;
    dfs::MetaPlane plane(dfs::ClusterTopology::flat(16), popt);
    std::vector<std::string> hot;
    for (std::uint32_t f = 0; f < 16; ++f) {
      hot.push_back("/bench/f" + std::to_string(f));
      write_bench_file(plane, hot.back());
    }
    dfs::ClientMetaCache cache(plane, {.lease_ticks = 16});
    for (int t = 0; t < 512; ++t) {
      for (const auto& path : hot) (void)cache.blocks_of(path);
      cache.tick();
    }
    const auto& cs = cache.stats();
    const double accesses =
        static_cast<double>(cs.lease_hits + cs.renewals + cs.refetches);
    std::printf("    \"lease_accesses\": %.0f,\n", accesses);
    std::printf("    \"lease_hit_rate\": %.4f\n",
                accesses > 0 ? static_cast<double>(cs.lease_hits) / accesses
                             : 0.0);
  }
  std::printf("  },\n");

  // Resilience (PR 9): the serving path behind a seeded ChaosProxy, queried
  // through the retrying client, with the owning metadata shard crashed for
  // the middle third (degraded serving) and recovered for the final third.
  // all_accounted / any_wrong are the contract fields: every query must end
  // golden, degraded-golden, or typed — goodput_qps is the wall-dependent
  // extra.
  std::printf("  \"resilience\": {\n");
  {
    server::ServerOptions sopts;
    sopts.workers = 2;
    sopts.cfg.num_nodes = 16;
    sopts.cfg.block_size = 64 * 1024;
    sopts.cfg.seed = 42;
    sopts.dataset_blocks = 32;
    sopts.io_timeout_ms = 2'000;
    server::Server srv(sopts);
    const auto journal_dir =
        std::filesystem::temp_directory_path() / "datanet_bench_resilience";
    std::filesystem::remove_all(journal_dir);
    std::filesystem::create_directories(journal_dir);
    srv.plane().attach_journals(journal_dir.string());
    srv.start();

    const auto& hot = srv.dataset().hot_keys;
    std::vector<std::uint64_t> golden;
    {
      server::Client direct(srv.port(), 5'000);
      for (const auto& hkey : hot) {
        server::QueryRequest req;
        req.tenant = "chaos";
        req.key = hkey;
        golden.push_back(direct.query(req).reply.digest);
      }
    }

    server::ChaosPlan plan;
    plan.seed = 7;
    plan.stall_ms = 900;
    server::ChaosProxy proxy(srv.port(), plan);
    proxy.start();

    constexpr std::uint64_t kQueries = 45;
    const std::uint32_t shard = srv.plane().shard_of(srv.dataset().path);
    std::uint64_t n_golden = 0, n_degraded = 0, n_typed = 0, n_wrong = 0;
    const auto c0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kQueries; ++i) {
      if (i == kQueries / 3) srv.plane().crash_shard(shard);
      if (i == 2 * kQueries / 3) (void)srv.plane().recover_shard(shard);
      server::RetryPolicy policy;
      policy.max_attempts = 3;
      policy.base_backoff_ms = 1;
      policy.max_backoff_ms = 10;
      policy.timeout_ms = 300;
      policy.seed = 7 ^ (i + 1);
      server::ResilientClient client(proxy.port(), policy);
      server::QueryRequest req;
      req.tenant = "chaos";
      req.key = hot[i % hot.size()];
      try {
        const auto result = client.query(req);
        if (result.ok() && result.reply.digest == golden[i % golden.size()]) {
          ++(result.reply.degraded ? n_degraded : n_golden);
        } else if (result.ok()) {
          ++n_wrong;
        } else {
          ++n_typed;
        }
      } catch (const server::RetriesExhaustedError&) {
        ++n_typed;
      }
    }
    const double cwall = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - c0)
                             .count();
    proxy.stop();
    srv.stop();
    std::filesystem::remove_all(journal_dir);

    std::printf("    \"queries\": %llu,\n",
                static_cast<unsigned long long>(kQueries));
    std::printf("    \"golden\": %llu,\n",
                static_cast<unsigned long long>(n_golden));
    std::printf("    \"degraded_golden\": %llu,\n",
                static_cast<unsigned long long>(n_degraded));
    std::printf("    \"typed_errors\": %llu,\n",
                static_cast<unsigned long long>(n_typed));
    std::printf("    \"all_accounted\": %s,\n",
                n_golden + n_degraded + n_typed + n_wrong == kQueries
                    ? "true"
                    : "false");
    std::printf("    \"any_wrong\": %s,\n", n_wrong == 0 ? "false" : "true");
    std::printf("    \"goodput_qps\": %.0f\n",
                cwall > 0
                    ? static_cast<double>(n_golden + n_degraded) / cwall
                    : 0.0);
  }
  std::printf("  },\n");

  // Streaming ingestion (PR 10): journaled group-commit append throughput,
  // the wall-clock case for delta-applying sealed blocks into the ElasticMap
  // instead of rebuilding it, and the chi-drift bound as a function of how
  // often the maintainer drains (EXPERIMENTS.md's drift-vs-interval curve).
  // delta_matches_rebuild is the deterministic contract field: the
  // incrementally maintained map must answer exactly like a fresh build.
  std::printf("  \"ingest\": {\n");
  {
    workload::MovieGenOptions gopt;
    gopt.num_records = 40'000;
    gopt.num_movies = 24;
    gopt.seed = 2016;
    std::vector<std::string> lines;
    std::uint64_t stream_bytes = 0;
    for (const auto& r : workload::MovieLogGenerator(gopt).generate()) {
      lines.push_back(workload::encode_record(r));
      stream_bytes += lines.back().size() + 1;
    }
    dfs::DfsOptions dopt;
    dopt.block_size = 16 * 1024;
    dopt.replication = 3;
    dopt.seed = 42;
    const std::string path = "/bench/stream.log";
    const auto bench_dir =
        std::filesystem::temp_directory_path() / "datanet_bench_ingest";
    std::filesystem::remove_all(bench_dir);
    std::filesystem::create_directories(bench_dir);

    // Append throughput through the full durable path: every group commit is
    // one framed-and-flushed journal record. Fresh cluster per rep.
    const double append_secs = best_of(3, [&] {
      dfs::MiniDfs mini(dfs::ClusterTopology::flat(16), dopt);
      dfs::EditLog journal((bench_dir / "ingest.edits").string());
      mini.attach_edit_log(&journal);
      dfs::Ingestor ing(mini, path, {.group_records = 64});
      for (const auto& line : lines) ing.append(line);
    });
    std::printf("    \"records\": %zu,\n", lines.size());
    std::printf("    \"append_records_per_sec\": %.0f,\n",
                append_secs > 0
                    ? static_cast<double>(lines.size()) / append_secs
                    : 0.0);
    std::printf("    \"append_mib_per_sec\": %.1f,\n",
                append_secs > 0 ? static_cast<double>(stream_bytes) /
                                      (1 << 20) / append_secs
                                : 0.0);

    // Delta-apply vs full rebuild: cover the first half, stream the second,
    // then time catching the map up by deltas vs rebuilding it from scratch.
    // One shot each (the maintainer state is consumed by the drain).
    dfs::MiniDfs mini(dfs::ClusterTopology::flat(16), dopt);
    {
      dfs::Ingestor ing(mini, path, {.group_records = 64});
      for (std::size_t i = 0; i < lines.size() / 2; ++i) ing.append(lines[i]);
    }
    elasticmap::LiveMapMaintainer maint(mini, path, {});
    {
      dfs::Ingestor ing(mini, path, {.group_records = 64});
      for (std::size_t i = lines.size() / 2; i < lines.size(); ++i) {
        ing.append(lines[i]);
      }
    }
    const auto d0 = std::chrono::steady_clock::now();
    (void)maint.drain();
    const double delta_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - d0)
                                .count();
    const double rebuild_ms = 1e3 * best_of(3, [&] {
      (void)elasticmap::ElasticMapArray::build(mini, path, {});
    });
    const auto fresh = elasticmap::ElasticMapArray::build(mini, path, {});
    bool matches = true;
    const workload::GroundTruth truth(mini, path);
    for (const auto id : truth.ids_by_size()) {
      matches &= maint.map().estimate_total_size(id) ==
                 fresh.estimate_total_size(id);
    }
    std::printf("    \"blocks\": %llu,\n",
                static_cast<unsigned long long>(
                    mini.blocks_of(path).size()));
    std::printf("    \"delta_catchup_half_ms\": %.3f,\n", delta_ms);
    std::printf("    \"full_rebuild_ms\": %.3f,\n", rebuild_ms);
    std::printf("    \"delta_matches_rebuild\": %s,\n",
                matches ? "true" : "false");

    // Chi-drift curve: prime the map over the first eighth of the stream
    // (a cold map is 100% stale by definition — not the interesting regime),
    // then stream the rest draining the maintainer every `interval` sealed
    // blocks, recording the worst drift bound seen right before a drain.
    // Deterministic (no wall clock involved).
    std::printf("    \"peak_chi_drift_by_drain_interval\": {");
    bool first_iv = true;
    for (const std::uint64_t interval : {1u, 2u, 4u, 8u, 16u}) {
      dfs::MiniDfs m2(dfs::ClusterTopology::flat(16), dopt);
      const std::size_t warmup = lines.size() / 8;
      {
        dfs::Ingestor warm(m2, path, {.group_records = 64});
        for (std::size_t i = 0; i < warmup; ++i) warm.append(lines[i]);
      }
      elasticmap::LiveMapMaintainer m2m(m2, path, {});
      double peak = 0.0;
      std::uint64_t seals = 0;
      dfs::Ingestor ing(m2, path, {.group_records = 64});
      ing.on_seal = [&](dfs::BlockId) {
        (void)m2m.scan();
        peak = std::max(peak, m2m.ledger().estimated_chi_drift);
        if (++seals % interval == 0) (void)m2m.drain();
      };
      for (std::size_t i = warmup; i < lines.size(); ++i) ing.append(lines[i]);
      std::printf("%s\"%llu\": %.4f", first_iv ? "" : ", ",
                  static_cast<unsigned long long>(interval), peak);
      first_iv = false;
    }
    std::printf("}\n");
    std::filesystem::remove_all(bench_dir);
  }
  std::printf("  }\n}\n");
  return 0;
}
