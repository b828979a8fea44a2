#pragma once
// Bridge between the real TaskSchedulers and the discrete-event cluster
// simulator: EventSimBackend is the second core::TimingBackend next to the
// analytic core::AnalyticBackend. One core::SelectionRuntime drives either —
// the same scheduler, read policy and fault policy run under event-driven
// timing with genuine pull-on-slot-free ordering (a slot frees -> that node
// requests the next block, exactly the paper's task-request loop).
// bench_sim_vs_analytic cross-checks the two backends of the one runtime.

#include <cstdint>
#include <vector>

#include "datanet/selection_runtime.hpp"
#include "dfs/mini_dfs.hpp"
#include "graph/bipartite.hpp"
#include "scheduler/scheduler.hpp"
#include "sim/cluster_sim.hpp"

namespace datanet::sim {

struct SelectionSimOptions {
  SimConfig cluster;  // cluster.speculative turns on event-level duplicates
  // Compute cost of the selection map (filtering) per input MiB, at cpu
  // speed 1.0.
  double cpu_seconds_per_mib = 0.2;
};

// Discrete-event timing backend. assign() runs the full event simulation
// (placement falls out of which slot freed first); the raw SimResult of the
// latest run stays available via last_sim(). report() translates it into
// the phase-level JobReport fields (node/map/total seconds, first finish,
// input bytes) and carries the simulator's speculative-duplicate counters
// in the attempts section — per-task engine details (map_tasks, output,
// shuffle) stay empty, since the event model times the selection scan only.
class EventSimBackend final : public core::TimingBackend {
 public:
  EventSimBackend(const dfs::MiniDfs& dfs, SelectionSimOptions options)
      : dfs_(&dfs), options_(std::move(options)) {}

  [[nodiscard]] scheduler::AssignmentRecord assign(
      scheduler::TaskScheduler& sched, const graph::BipartiteGraph& graph,
      const std::vector<std::uint64_t>& block_bytes) override;
  [[nodiscard]] mapred::JobReport report(
      const std::string& key, const std::vector<mapred::InputSplit>& splits,
      const core::ExperimentConfig& cfg,
      const std::vector<double>& node_speeds,
      const mapred::AttemptCounters& attempts) override;
  // The event model prices bytes, not records: the runtime keeps its
  // key-only scan.
  [[nodiscard]] bool wants_filter_counts() const override { return false; }

  // Raw result of the most recent assign() (task finish times, makespan,
  // remote reads).
  [[nodiscard]] const SimResult& last_sim() const { return last_sim_; }

 private:
  const dfs::MiniDfs* dfs_;
  SelectionSimOptions options_;
  SimResult last_sim_;
};

}  // namespace datanet::sim
