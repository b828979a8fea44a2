// ingest-query: streaming writes beside reads, in-process and
// single-threaded. A round starts from a 64-block movie log on a 16-node
// cluster, then appends 50 batches of movie records, in an order the seed
// shuffles, through dfs::Ingestor (group commit 64 records; EditLog in the
// work directory, flushed per group commit, never fsynced) and seals after
// each batch. After every seal, DatasetCache::get takes the delta-apply path
// (ElasticMapArray::extend over the new blocks) and server::execute_query
// answers the hottest key on the grown file. Rounds repeat until the time is
// up, so every round measures the same file sizes.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dfs/edit_log.hpp"
#include "dfs/ingest.hpp"
#include "server/dataset_cache.hpp"
#include "server/server.hpp"
#include "workload/dataset.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kBaseBlocks = 64;
constexpr std::uint64_t kBatches = 50;
constexpr std::uint64_t kBatchRecords = 2048;
constexpr std::uint64_t kGroupRecords = 64;
constexpr int kSetups = 3;

}  // namespace

RunStatus run_ingest_query(const Args& args, dn::common::JsonWriter& out,
                           Tracer* tracer) {
  dn::core::ExperimentConfig cfg;
  cfg.num_nodes = 16;
  cfg.block_size = 64 * 1024;
  cfg.replication = 3;
  cfg.seed = args.seed;  // replica placement and arrival order
  dn::core::ExperimentConfig data_cfg = cfg;
  data_cfg.seed = kDatasetSeed;
  // execute_query runs each query on one engine thread; the replay does too.
  dn::core::ExperimentConfig qcfg = cfg;
  qcfg.execution_threads = 1;
  const std::string path = "/data/stream.log";
  const std::filesystem::path journal_path =
      std::filesystem::path(args.work_dir) /
      ("ingest-" + std::to_string(::getpid()) + ".edits");

  const std::uint64_t base_records = movie_records(cfg, kBaseBlocks);
  std::unique_ptr<dn::dfs::MiniDfs> dfs;
  std::unique_ptr<dn::server::DatasetCache> cache;
  const auto ingest_base = [&](const MovieSource& src) {
    dfs = std::make_unique<dn::dfs::MiniDfs>(
        dn::dfs::ClusterTopology::flat(cfg.num_nodes),
        dn::core::make_dfs_options(cfg));
    dn::workload::ingest(
        *dfs, path,
        std::span(src.records).first(static_cast<std::size_t>(base_records)));
  };

  // ---- set-up: generate + ingest the base + ElasticMap build ----
  std::vector<double> setup_s;
  MovieSource src;
  const std::uint32_t setup_name = intern(tracer, "setup");
  const std::uint32_t gen_name = intern(tracer, "workload.generate");
  const std::uint32_t ingest_name = intern(tracer, "dfs.ingest");
  const std::uint32_t build_name = intern(tracer, "elasticmap.build");
  for (int i = 0; i < kSetups; ++i) {
    cache.reset();
    dfs.reset();
    if (tracer) tracer->set_operation(i);
    const auto t0 = Clock::now();
    {
      Span setup(tracer, setup_name);
      {
        Span s(tracer, gen_name);
        src = generate_movies(data_cfg,
                              base_records + kBatches * kBatchRecords);
        // The seed shuffles the arrival order: every batch then carries each
        // movie in proportion to its popularity, so batches and seeds do the
        // same work.
        dn::common::Rng rng(cfg.seed ^ 0x5eed5eedULL);
        std::shuffle(src.records.begin(), src.records.end(), rng);
      }
      {
        Span s(tracer, ingest_name);
        ingest_base(src);
      }
      Span s(tracer, build_name);
      cache = std::make_unique<dn::server::DatasetCache>();
      (void)cache->get(*dfs, path);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (src.records.size() < base_records + kBatches * kBatchRecords) {
    throw std::runtime_error("ingest-query: too few generated records");
  }
  std::vector<std::string> lines;
  lines.reserve(src.records.size());
  for (const auto& r : src.records) {
    lines.push_back(dn::workload::encode_record(r));
  }
  const std::string key = src.hot_keys.front();
  dn::server::QueryRequest request;
  request.tenant = "ingest";
  request.key = key;

  // ---- timed rounds; the traced run alternates traced and plain rounds ----
  RunStatus status;
  std::vector<double> freshness_ms, traced_freshness_ms, append_s;
  std::vector<double> candidate_ratio, match_ratio;
  std::uint64_t records = 0, group_commits = 0, user_bytes = 0;
  std::uint64_t journal_bytes = 0, delta_applies = 0, rebuilds = 0;
  std::uint64_t rounds = 0, op = kSetups;
  LayerCounts counts;
  dn::core::CostOnlyBackend cost_only;
  const std::uint32_t batch_name = intern(tracer, "batch");
  const std::uint32_t append_name = intern(tracer, "dfs.append");
  const std::uint32_t seal_name = intern(tracer, "dfs.seal");
  const std::uint32_t delta_name = intern(tracer, "elasticmap.delta");
  const std::uint32_t digest_name = intern(tracer, "datanet.digest");
  const auto end = Clock::now() + std::chrono::duration<double>(args.seconds);
  while (rounds == 0 || Clock::now() < end) {
    const bool traced = tracer != nullptr && rounds % 2 == 1;
    Tracer* t = traced ? tracer : nullptr;
    if (rounds > 0) {
      // Fresh base and a fresh cache (a new MiniDfs may reuse the old
      // address, which the cache would take for the same instance).
      cache.reset();
      ingest_base(src);
      cache = std::make_unique<dn::server::DatasetCache>();
      (void)cache->get(*dfs, path);
    }
    dn::dfs::EditLog journal(journal_path.string());
    dfs->attach_edit_log(&journal);
    std::uint64_t last_digest = 0;
    std::shared_ptr<const dn::core::DataNet> bundle;
    {
      dn::dfs::Ingestor ingestor(*dfs, path, {.group_records = kGroupRecords});
      for (std::uint64_t b = 0; b < kBatches; ++b) {
        if (t) t->set_operation(op++);
        const std::size_t first =
            static_cast<std::size_t>(base_records + b * kBatchRecords);
        Span root(t, batch_name);
        const auto t0 = Clock::now();
        {
          Span s(t, append_name);
          for (std::size_t i = first; i < first + kBatchRecords; ++i) {
            ingestor.append(lines[i]);
          }
        }
        {
          Span s(t, seal_name);
          ingestor.seal();
        }
        const auto sealed = Clock::now();
        dn::server::QueryOutcome answer;
        std::uint64_t candidates = 0;
        {
          Span s(t, delta_name);
          bundle = cache->get(*dfs, path);
        }
        if (t == nullptr) {
          answer = dn::server::execute_query(*dfs, path, bundle.get(),
                                             request, cfg);
        } else {
          const std::uint64_t read_before = counts.read_bytes;
          const auto selection = select_key(*dfs, *bundle, key, cost_only,
                                            qcfg, t, counts, candidates);
          {
            Span s(t, digest_name);
            answer.reply.digest = dn::server::selection_digest(selection);
          }
          answer.ok = true;
          candidate_ratio.push_back(
              ratio(candidates, dfs->blocks_of(path).size()));
          match_ratio.push_back(ratio(matched_bytes(selection),
                                      counts.read_bytes - read_before));
        }
        const auto answered = Clock::now();
        append_s.push_back(seconds_between(t0, sealed));
        (traced ? traced_freshness_ms : freshness_ms)
            .push_back(ms_between(sealed, answered));
        ++status.attempted;
        if (!answer.ok) {
          ++status.failed;
          status.note("query after batch " + std::to_string(b) + ": " +
                      answer.error);
        } else if (bundle->meta().num_blocks() != dfs->blocks_of(path).size()) {
          ++status.failed;
          status.fail("answer after batch " + std::to_string(b) +
                      " does not cover the sealed blocks");
        }
        last_digest = answer.reply.digest;
        records += kBatchRecords;
      }
      group_commits += ingestor.stats().group_commits;
      user_bytes += ingestor.stats().bytes_committed;
    }
    journal_bytes += journal.bytes_written();
    dfs->attach_edit_log(nullptr);
    const auto cs = cache->stats();
    delta_applies += cs.delta_applies;
    rebuilds += cs.rebuilds;

    // Untimed check: the last answer and the delta-maintained estimates
    // equal a fresh full build of the grown file.
    const dn::core::DataNet full(*dfs, path);
    const auto reference =
        dn::server::execute_query(*dfs, path, &full, request, cfg);
    if (!reference.ok || reference.reply.digest != last_digest) {
      status.fail("round " + std::to_string(rounds) +
                  ": last answer differs from a full rebuild");
    }
    for (const auto& k : src.hot_keys) {
      if (bundle->estimate_total_size(k) != full.estimate_total_size(k)) {
        status.fail("round " + std::to_string(rounds) + ": delta estimate of " +
                    k + " differs from a full rebuild");
      }
    }
    ++rounds;
  }
  std::filesystem::remove(journal_path);

  out.field("key", key);
  out.field("journal_policy",
            "EditLog flushed per group commit of 64 records, no fsync");
  write_series(out, "setup_s", setup_s);
  out.key("samples").begin_object();
  write_series(out, "freshness_ms", freshness_ms);
  write_series(out, "append_s", append_s);
  if (tracer != nullptr) {
    write_series(out, "traced_freshness_ms", traced_freshness_ms);
    write_series(out, "candidate_block_ratio", candidate_ratio);
    write_series(out, "match_ratio", match_ratio);
  }
  out.end_object();
  out.key("counts").begin_object();
  out.field("rounds", rounds);
  out.field("batches", static_cast<std::uint64_t>(append_s.size()));
  out.field("records", records);
  out.field("group_commits", group_commits);
  out.field("user_bytes", user_bytes);
  out.field("journal_bytes", journal_bytes);
  out.field("cache_delta_applies", delta_applies);
  out.field("cache_rebuilds", rebuilds);
  out.field("traced_ops",
            static_cast<std::uint64_t>(traced_freshness_ms.size()));
  out.field("read_calls", counts.read_calls);
  out.field("read_bytes", counts.read_bytes);
  out.field("remote_reads", counts.remote_reads);
  out.field("meta_memory_bytes", cache->get(*dfs, path)->meta().memory_bytes());
  out.field("meta_raw_bytes", cache->get(*dfs, path)->meta().raw_bytes());
  out.end_object();
  return status;
}

}  // namespace perfbench
