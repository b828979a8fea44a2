// Hot-path bench: real-wall numbers for the selection path —
//
//   1. scan throughput — filter_lines (memchr line splitting + exact
//                        key-field test), the counting scan the selection
//                        prices its report from (filter_lines_counted:
//                        every line also validated and tallied), and the
//                        decode-every-line reference, MiB/s over the movie
//                        corpus;
//   2. copy vs zero-copy — a per-task `std::string(block)` copy before
//                        filtering vs filtering the DFS-owned bytes in
//                        place;
//   3. thread scaling  — selection wall at 1/2/4/8 engine threads (the
//                        filter runs per node on the engine's threads).
//
// Wall times are host-dependent; every simulated figure and all report
// bytes are deterministic. The machine-readable twin of this bench is the
// "hotpath" section of tools/bench_report.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "apps/filter.hpp"
#include "bench_util.hpp"
#include "scheduler/datanet_sched.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Best-of-N wall time for `fn`; best-of smooths scheduler noise on shared
// hosts better than a mean does.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int main() {
  using namespace datanet;
  benchutil::print_header(
      "Hot-path: scan throughput, zero-copy reads, thread scaling",
      "selection wall time tracks the line scan");

  const auto cfg = benchutil::paper_config();
  auto ds = core::make_movie_dataset(cfg, 256, 2000);
  const std::string key = ds.hot_keys[0];
  const core::DataNet net(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto& blocks = ds.dfs->blocks_of(ds.path);

  std::uint64_t corpus_bytes = 0;
  for (const dfs::BlockId b : blocks) corpus_bytes += ds.dfs->read_block(b).size();
  const double corpus_mib = static_cast<double>(corpus_bytes) / (1024.0 * 1024.0);

  // ---- 1. scan throughput ---------------------------------------------
  std::printf("\n[filter_lines scan throughput] corpus %.1f MiB, key \"%s\"\n",
              corpus_mib, key.c_str());
  const auto sweep = [&](const char* label, auto filter) {
    std::uint64_t matched = 0;
    const double secs = best_of(5, [&] {
      matched = 0;
      std::string out;
      for (const dfs::BlockId b : blocks) {
        out.clear();
        matched += filter(ds.dfs->read_block(b), key, out);
      }
    });
    std::printf("  %-18s %8.1f MiB/s  (%.4fs, %llu bytes matched)\n", label,
                corpus_mib / secs, secs,
                static_cast<unsigned long long>(matched));
  };
  sweep("filter_lines", core::filter_lines);
  sweep("counting scan", [](std::string_view data, const std::string& k,
                            std::string& out) {
    apps::FilterCounts counts;
    return core::filter_lines_counted(data, k, out, counts);
  });
  sweep("decode-all ref", core::filter_lines_decode_all);

  // ---- 2. copy vs zero-copy -------------------------------------------
  std::printf("\n[block read: copy vs zero-copy]\n");
  const double copy_secs = best_of(5, [&] {
    std::string out;
    for (const dfs::BlockId b : blocks) {
      out.clear();
      const std::string owned(ds.dfs->read_block(b));  // per-task copy
      (void)core::filter_lines(owned, key, out);
    }
  });
  const double zero_secs = best_of(5, [&] {
    std::string out;
    for (const dfs::BlockId b : blocks) {
      out.clear();
      (void)core::filter_lines(ds.dfs->read_block(b), key, out);
    }
  });
  std::printf("  with per-task copy   %.4fs\n", copy_secs);
  std::printf("  zero-copy view       %.4fs   (%.2fx)\n", zero_secs,
              copy_secs / zero_secs);

  // ---- 3. thread scaling ----------------------------------------------
  std::printf("\n[selection wall vs engine threads]\n");
  scheduler::DataNetScheduler sched;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    auto tcfg = cfg;
    tcfg.execution_threads = threads;
    const double secs = best_of(3, [&] {
      (void)benchutil::run_selection(*ds.dfs, ds.path, key, sched, &net, tcfg);
    });
    std::printf("  threads=%u  %.4fs\n", threads, secs);
  }
  return 0;
}
