#pragma once
// Shared plumbing of the benchmark program: command-line arguments, the
// workload result every workload fills in, the traced seams, the movie
// dataset helpers and small clock/memory utilities.
//
// The program prints raw measurements (per-operation samples, counts, span
// dumps); perfbench/benchlib.py turns them into the reported metrics.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "datanet/selection_runtime.hpp"
#include "trace.hpp"
#include "workload/record.hpp"

namespace perfbench {

namespace dn = datanet;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span dump path (traced runs)
  std::string work_dir{"."};  // working files (the ingest journal)
};

// What each workload hands back to main(). `out` already holds the
// workload's own fields (samples, counts, stamps) inside the open top-level
// object; main() adds the shared ones.
struct RunStatus {
  bool correct = true;
  std::vector<std::string> errors;  // first few correctness failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // A wrong result: the run is not correct.
  void fail(std::string what) {
    correct = false;
    note(std::move(what));
  }
  // A refused or failed operation: counted in `failed` by the caller.
  void note(std::string what) {
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

// Threads a workload keeps runnable at once; main() refuses to run when
// the total exceeds nproc.
struct ThreadBudget {
  std::uint32_t load = 1;         // the load-generating thread
  std::uint32_t engine = 0;       // mapred engine pool
  std::uint32_t connections = 0;  // loopback connections (serve-zipf)
  std::uint32_t server_workers = 0;
  std::uint32_t server_handlers = 0;
  // A connection's handler thread and the worker running its query hand off
  // to each other (one request-response at a time per connection), so each
  // connection adds one runnable thread, not two.
  [[nodiscard]] std::uint32_t runnable() const {
    return load + engine + connections;
  }
};

[[nodiscard]] ThreadBudget budget_for(const std::string& workload);

RunStatus run_batch_hot(const Args& args, dn::common::JsonWriter& out,
                        Tracer* tracer);
RunStatus run_serve_zipf(const Args& args, dn::common::JsonWriter& out,
                         Tracer* tracer);
RunStatus run_ingest_query(const Args& args, dn::common::JsonWriter& out,
                           Tracer* tracer);

// ---- clocks ----

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void write_series(dn::common::JsonWriter& out, std::string_view name,
                  const std::vector<double>& values);

// ---- movie datasets ----

// Every workload's movie records come from this dataset seed, the paper
// configuration's; the workload seed draws what varies between runs
// (replica placement, request stream, arrival order). Per-job work differs
// by up to 1.6x between datasets drawn from different seeds (how the hot
// movies' reviews spread over the blocks), which would swamp the program's
// own run-to-run changes.
inline constexpr std::uint64_t kDatasetSeed = 2016;

// The generation half of core::ingest_movie_dataset, kept separate so the
// benchmark can time generation and ingestion as two layers. With
// movie_records(cfg, blocks) records it yields the same records and hot keys
// as ingest_movie_dataset(dfs, path, cfg, blocks).
struct MovieSource {
  std::vector<dn::workload::Record> records;
  std::vector<std::string> hot_keys;  // hottest first (at most 16)
};
[[nodiscard]] std::uint64_t movie_records(const dn::core::ExperimentConfig& cfg,
                                          std::uint64_t num_blocks);
[[nodiscard]] MovieSource generate_movies(const dn::core::ExperimentConfig& cfg,
                                          std::uint64_t num_records);

// ---- traced seams ----

// Per-layer counts gathered by the traced seams, summed over a run.
struct LayerCounts {
  std::uint64_t read_calls = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t remote_reads = 0;
};

// ReplicaReadPolicy that records a "dfs.read" span around each delegated
// read and counts calls, bytes and remote (non-local) reads.
class TracedRead final : public dn::core::ReplicaReadPolicy {
 public:
  TracedRead(dn::core::ReplicaReadPolicy& inner, const dn::dfs::MiniDfs& dfs,
             Tracer& tracer, LayerCounts& counts)
      : inner_(&inner), dfs_(&dfs), tracer_(&tracer), counts_(&counts),
        name_(tracer.intern("dfs.read")) {}
  [[nodiscard]] dn::core::ReplicaRead read(dn::dfs::BlockId block,
                                           dn::dfs::NodeId node) override;

 private:
  dn::core::ReplicaReadPolicy* inner_;
  const dn::dfs::MiniDfs* dfs_;
  Tracer* tracer_;
  LayerCounts* counts_;
  std::uint32_t name_;
};

// TimingBackend that records "scheduler.assign" and "mapred.report" spans
// around the delegated backend's calls.
class TracedTiming final : public dn::core::TimingBackend {
 public:
  TracedTiming(dn::core::TimingBackend& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer),
        assign_(tracer.intern("scheduler.assign")),
        report_(tracer.intern("mapred.report")) {}
  [[nodiscard]] dn::scheduler::AssignmentRecord assign(
      dn::scheduler::TaskScheduler& sched, const dn::graph::BipartiteGraph& graph,
      const std::vector<std::uint64_t>& block_bytes) override;
  [[nodiscard]] dn::mapred::JobReport report(
      const std::string& key, const std::vector<dn::mapred::InputSplit>& splits,
      const dn::core::ExperimentConfig& cfg,
      const std::vector<double>& node_speeds,
      const dn::mapred::AttemptCounters& attempts) override;

 private:
  dn::core::TimingBackend* inner_;
  Tracer* tracer_;
  std::uint32_t assign_;
  std::uint32_t report_;
};

// The selection half shared by every workload: DataNet::scheduling_graph
// for `key`, then SelectionRuntime::run_graph with DirectReadPolicy +
// NoFaults + `backend` — the calls server::execute_query makes. With a
// tracer it records "datanet.graph" and "datanet.run_graph" spans and runs
// through the traced seams; `candidate_blocks` receives the graph's size.
[[nodiscard]] dn::core::SelectionResult select_key(
    const dn::dfs::MiniDfs& dfs, const dn::core::DataNet& net,
    const std::string& key, dn::core::TimingBackend& backend,
    const dn::core::ExperimentConfig& cfg, Tracer* tracer, LayerCounts& counts,
    std::uint64_t& candidate_blocks);

// Bytes the selection kept: the sub-dataset's size as materialized.
[[nodiscard]] std::uint64_t matched_bytes(
    const dn::core::SelectionResult& selection);

// a / b, with b taken as at least 1.
[[nodiscard]] inline double ratio(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(a) / static_cast<double>(b == 0 ? 1 : b);
}

// ---- process ----

[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
