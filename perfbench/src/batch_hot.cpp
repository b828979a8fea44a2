// batch-hot: the paper's Fig. 5/7 pipeline as a closed loop with one caller.
// Every job analyses the hottest sub-dataset of a 256-block movie log on a
// 32-node cluster: DataNet::scheduling_graph, SelectionRuntime::run_graph
// (DirectReadPolicy + NoFaults + AnalyticBackend), then the WordCount
// analysis over the node-local selection. All jobs have the same shape, so
// the job-time percentiles describe one distribution.

#include <algorithm>
#include <memory>

#include "apps/word_count.hpp"
#include "bench.hpp"
#include "mapred/report_json.hpp"
#include "server/server.hpp"
#include "workload/dataset.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kBlocks = 256;
constexpr int kSetups = 3;
constexpr int kWarmupJobs = 2;

struct JobOutput {
  dn::core::SelectionResult selection;
  dn::mapred::JobReport analysis;
  std::uint64_t candidate_blocks = 0;
  double wall_ms = 0.0;  // graph + select + analysis
};

}  // namespace

RunStatus run_batch_hot(const Args& args, dn::common::JsonWriter& out,
                        Tracer* tracer) {
  dn::core::ExperimentConfig cfg;
  cfg.num_nodes = 32;
  cfg.block_size = 128 * 1024;
  cfg.replication = 3;
  cfg.slots_per_node = 2;
  cfg.seed = args.seed;  // replica placement and the scheduler
  cfg.execution_threads = budget_for(args.workload).engine;
  dn::core::ExperimentConfig data_cfg = cfg;
  data_cfg.seed = kDatasetSeed;
  const std::string path = "/data/movies.log";

  // ---- set-up: generate + ingest + ElasticMap build, kSetups times ----
  std::vector<double> setup_s;
  std::unique_ptr<dn::dfs::MiniDfs> dfs;
  std::unique_ptr<dn::core::DataNet> net;
  std::string key;
  const std::uint32_t setup_name = intern(tracer, "setup");
  const std::uint32_t gen_name = intern(tracer, "workload.generate");
  const std::uint32_t ingest_name = intern(tracer, "dfs.ingest");
  const std::uint32_t build_name = intern(tracer, "elasticmap.build");
  for (int i = 0; i < kSetups; ++i) {
    net.reset();
    dfs.reset();
    if (tracer) tracer->set_operation(i);
    const auto t0 = Clock::now();
    {
      Span setup(tracer, setup_name);
      MovieSource src = [&] {
        Span s(tracer, gen_name);
        return generate_movies(data_cfg, movie_records(cfg, kBlocks));
      }();
      {
        Span s(tracer, ingest_name);
        dfs = std::make_unique<dn::dfs::MiniDfs>(
            dn::dfs::ClusterTopology::flat(cfg.num_nodes),
            dn::core::make_dfs_options(cfg));
        dn::workload::ingest(*dfs, path, src.records);
      }
      {
        Span s(tracer, build_name);
        net = std::make_unique<dn::core::DataNet>(*dfs, path);
      }
      key = src.hot_keys.front();
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  dn::core::AnalyticBackend analytic;
  LayerCounts counts;
  const std::uint32_t job_name = intern(tracer, "job");
  const std::uint32_t analysis_name = intern(tracer, "mapred.analysis");
  const std::uint32_t digest_name = intern(tracer, "datanet.digest");
  const auto run_job = [&](Tracer* t) {
    JobOutput job;
    const auto t0 = Clock::now();
    {
      Span root(t, job_name);
      job.selection = select_key(*dfs, *net, key, analytic, cfg, t, counts,
                                 job.candidate_blocks);
      Span s(t, analysis_name);
      job.analysis = dn::core::run_analysis(dn::apps::make_word_count_job(),
                                            job.selection, cfg);
    }
    job.wall_ms = ms_between(t0, Clock::now());
    return job;
  };
  const auto digest_of = [&](const JobOutput& job, Tracer* t) {
    Span s(t, digest_name);
    return dn::server::selection_digest(job.selection);
  };

  // ---- golden: one untimed job, checked against the ground truth ----
  RunStatus status;
  const JobOutput golden = run_job(nullptr);
  const std::string golden_selection =
      dn::mapred::report_to_json(golden.selection.report, true);
  const std::string golden_analysis =
      dn::mapred::report_to_json(golden.analysis, true);
  const std::uint64_t golden_digest = digest_of(golden, nullptr);
  {
    const dn::workload::GroundTruth truth(*dfs, path);
    const std::uint64_t matched = matched_bytes(golden.selection);
    const std::uint64_t expected =
        truth.total_size(dn::workload::subdataset_id(key));
    if (matched != expected) {
      status.fail("selection of " + key + " holds " + std::to_string(matched) +
                  " bytes, ground truth " + std::to_string(expected));
    }
  }
  for (int i = 0; i < kWarmupJobs; ++i) (void)run_job(nullptr);

  // ---- timed closed loop; the traced run alternates traced and plain ----
  std::vector<double> job_ms, traced_ms, map_wall_ms, shuffle_wall_ms;
  std::vector<double> candidate_ratio, match_ratio, load_max_over_mean;
  std::vector<double> remote_tasks;
  const std::uint64_t total_blocks = dfs->blocks_of(path).size();
  const auto end = Clock::now() + std::chrono::duration<double>(args.seconds);
  for (std::uint64_t n = 0; Clock::now() < end; ++n) {
    const bool traced = tracer != nullptr && n % 2 == 1;
    if (traced) tracer->set_operation(kSetups + n);
    const std::uint64_t read_bytes_before = counts.read_bytes;
    const JobOutput job = run_job(traced ? tracer : nullptr);
    ++status.attempted;
    (traced ? traced_ms : job_ms).push_back(job.wall_ms);
    if (digest_of(job, traced ? tracer : nullptr) != golden_digest ||
        dn::mapred::report_to_json(job.selection.report, true) !=
            golden_selection ||
        dn::mapred::report_to_json(job.analysis, true) != golden_analysis) {
      ++status.failed;
      status.fail("job " + std::to_string(n) + " differs from the golden job");
    }
    if (!traced) continue;
    map_wall_ms.push_back(1e3 * job.analysis.wall_map_seconds);
    shuffle_wall_ms.push_back(1e3 * job.analysis.wall_shuffle_reduce_seconds);
    candidate_ratio.push_back(ratio(job.candidate_blocks, total_blocks));
    match_ratio.push_back(ratio(matched_bytes(job.selection),
                                counts.read_bytes - read_bytes_before));
    const auto& load = job.selection.assignment.node_load;
    std::uint64_t sum = 0, max = 0;
    for (const auto l : load) {
      sum += l;
      max = std::max(max, l);
    }
    load_max_over_mean.push_back(ratio(max * load.size(), sum));
    remote_tasks.push_back(
        static_cast<double>(job.selection.assignment.remote_tasks));
  }

  out.field("key", key);
  write_series(out, "setup_s", setup_s);
  out.field("sim_job_s", golden.selection.report.total_seconds +
                             golden.analysis.total_seconds);
  out.key("samples").begin_object();
  write_series(out, "job_ms", job_ms);
  if (tracer != nullptr) {
    write_series(out, "traced_job_ms", traced_ms);
    write_series(out, "map_wall_ms", map_wall_ms);
    write_series(out, "shuffle_reduce_wall_ms", shuffle_wall_ms);
    write_series(out, "candidate_block_ratio", candidate_ratio);
    write_series(out, "match_ratio", match_ratio);
    write_series(out, "load_max_over_mean", load_max_over_mean);
    write_series(out, "remote_tasks", remote_tasks);
  }
  out.end_object();
  out.key("counts").begin_object();
  out.field("traced_ops", static_cast<std::uint64_t>(traced_ms.size()));
  out.field("read_calls", counts.read_calls);
  out.field("read_bytes", counts.read_bytes);
  out.field("remote_reads", counts.remote_reads);
  out.field("meta_memory_bytes", net->meta().memory_bytes());
  out.field("meta_raw_bytes", net->meta().raw_bytes());
  out.end_object();
  return status;
}

}  // namespace perfbench
