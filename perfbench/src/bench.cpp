#include "bench.hpp"

#include <sys/resource.h>

#include "server/server.hpp"
#include "workload/movie_gen.hpp"

namespace perfbench {

ThreadBudget budget_for(const std::string& workload) {
  ThreadBudget b;
  if (workload == "batch-hot") {
    b.engine = 2;
  } else if (workload == "serve-zipf") {
    b.connections = 2;
    b.server_workers = 2;
    b.server_handlers = 2;
  }
  return b;
}

void write_series(dn::common::JsonWriter& out, std::string_view name,
                  const std::vector<double>& values) {
  out.key(name).begin_array();
  for (const double v : values) out.value(v);
  out.end_array();
}

std::uint64_t movie_records(const dn::core::ExperimentConfig& cfg,
                            std::uint64_t num_blocks) {
  // core::ingest_movie_dataset's sizing: 150-byte average records.
  constexpr double kAvgMovieRecordBytes = 150.0;
  return static_cast<std::uint64_t>(
      static_cast<double>(num_blocks * cfg.block_size) / kAvgMovieRecordBytes);
}

MovieSource generate_movies(const dn::core::ExperimentConfig& cfg,
                            std::uint64_t num_records) {
  constexpr std::uint64_t kMovies = 2000;
  dn::workload::MovieGenOptions gopt;
  gopt.num_movies = kMovies;
  gopt.num_records = num_records;
  gopt.seed = cfg.seed * 7919 + 13;
  const dn::workload::MovieLogGenerator gen(gopt);
  MovieSource src;
  src.records = gen.generate();
  for (std::uint64_t r = 0; r < std::min<std::uint64_t>(kMovies, 16); ++r) {
    src.hot_keys.push_back(gen.movie_key(r));
  }
  return src;
}

dn::core::ReplicaRead TracedRead::read(dn::dfs::BlockId block,
                                       dn::dfs::NodeId node) {
  Span span(tracer_, name_);
  dn::core::ReplicaRead r = inner_->read(block, node);
  ++counts_->read_calls;
  counts_->read_bytes += r.data.size();
  if (!dfs_->is_local(block, node)) ++counts_->remote_reads;
  return r;
}

dn::scheduler::AssignmentRecord TracedTiming::assign(
    dn::scheduler::TaskScheduler& sched, const dn::graph::BipartiteGraph& graph,
    const std::vector<std::uint64_t>& block_bytes) {
  Span span(tracer_, assign_);
  return inner_->assign(sched, graph, block_bytes);
}

dn::mapred::JobReport TracedTiming::report(
    const std::string& key, const std::vector<dn::mapred::InputSplit>& splits,
    const dn::core::ExperimentConfig& cfg,
    const std::vector<double>& node_speeds,
    const dn::mapred::AttemptCounters& attempts) {
  Span span(tracer_, report_);
  return inner_->report(key, splits, cfg, node_speeds, attempts);
}

dn::core::SelectionResult select_key(const dn::dfs::MiniDfs& dfs,
                                     const dn::core::DataNet& net,
                                     const std::string& key,
                                     dn::core::TimingBackend& backend,
                                     const dn::core::ExperimentConfig& cfg,
                                     Tracer* tracer, LayerCounts& counts,
                                     std::uint64_t& candidate_blocks) {
  const auto sched = dn::server::make_scheduler("datanet", cfg.seed);
  const dn::graph::BipartiteGraph graph = [&] {
    Span span(tracer, intern(tracer, "datanet.graph"));
    return net.scheduling_graph(key);
  }();
  candidate_blocks = graph.num_blocks();
  dn::core::DirectReadPolicy direct(dfs, cfg.remote_read_penalty);
  dn::core::NoFaults faults;
  if (tracer == nullptr) {
    const dn::core::SelectionRuntime runtime(direct, faults, backend);
    return runtime.run_graph(dfs, graph, key, *sched, cfg);
  }
  TracedRead read(direct, dfs, *tracer, counts);
  TracedTiming timing(backend, *tracer);
  const dn::core::SelectionRuntime runtime(read, faults, timing);
  Span span(tracer, tracer->intern("datanet.run_graph"));
  return runtime.run_graph(dfs, graph, key, *sched, cfg);
}

std::uint64_t matched_bytes(const dn::core::SelectionResult& selection) {
  std::uint64_t total = 0;
  for (const auto b : selection.node_filtered_bytes) total += b;
  return total;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
