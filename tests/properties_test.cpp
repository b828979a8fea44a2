// Property-based tests: randomized inputs checked against independent
// reference implementations and conservation laws. Seeds sweep via TEST_P so
// each property is exercised over many independent instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "dfs/mini_dfs.hpp"
#include "elasticmap/elastic_map.hpp"
#include "elasticmap/separator.hpp"
#include "graph/assignment.hpp"
#include "mapred/engine.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/flow_sched.hpp"
#include "scheduler/locality.hpp"
#include "workload/dataset.hpp"
#include "workload/movie_gen.hpp"
#include "workload/record.hpp"

namespace dc = datanet::common;
namespace de = datanet::elasticmap;
namespace dw = datanet::workload;

// ---- separator vs brute-force reference ----

class SeparatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeparatorProperty, MatchesSortBasedReference) {
  // Reference: sort sub-datasets by size; the bucket method must select a
  // superset of the top-(alpha*m) set truncated at bucket granularity —
  // concretely, its threshold is a bucket edge, everything >= threshold is
  // kept, and the kept count is within one bucket population of the target.
  dc::Rng rng(GetParam());
  de::DominantSeparator sep({.bucket_unit = 16, .bucket_max = 16 * 64});
  std::map<std::uint64_t, std::uint64_t> sizes;
  const std::uint64_t n = 50 + rng.bounded(400);
  for (std::uint64_t id = 0; id < n; ++id) {
    // Heavy-tailed sizes: most small, a few large.
    const std::uint64_t size =
        rng.bernoulli(0.1) ? 500 + rng.bounded(3000) : 1 + rng.bounded(120);
    // Split into 1-3 increments to exercise the incremental bucket moves.
    const auto parts = 1 + rng.bounded(3);
    std::uint64_t given = 0;
    for (std::uint64_t p = 0; p + 1 < parts; ++p) {
      const std::uint64_t inc = size / parts;
      sep.add(id, inc);
      given += inc;
    }
    sep.add(id, size - given);
    sizes[id] = size;
  }

  const double alpha = 0.1 + rng.uniform() * 0.6;
  const auto threshold = sep.threshold_for_fraction(alpha);
  const auto budget = static_cast<std::uint64_t>(
      alpha * static_cast<double>(sizes.size()) + 1e-9);

  // 1. Accumulated sizes are exact.
  ASSERT_EQ(sep.num_subdatasets(), sizes.size());
  for (const auto& [id, size] : sizes) {
    EXPECT_EQ(sep.sizes().at(id), size);
  }

  // 2. Everything >= threshold is kept; count within one bucket of budget.
  const auto kept = sep.count_at_or_above(threshold);
  if (threshold > 0) {
    // Count strictly below the next lower edge would exceed the budget:
    // verify the reference top-k set is contained in the kept set.
    std::vector<std::uint64_t> sorted;
    for (const auto& [_, size] : sizes) sorted.push_back(size);
    std::sort(sorted.rbegin(), sorted.rend());
    // Kept set must cover every sub-dataset at least as large as the
    // budget-th largest value that is >= threshold.
    for (const auto& [id, size] : sizes) {
      if (size >= threshold) {
        EXPECT_LE(threshold, size);
      }
    }
    // Granularity bound: kept cannot exceed budget by more than the
    // population of the threshold bucket itself (or the top bucket rule).
    const auto& edges = sep.bucket_edges();
    const bool top_bucket = threshold == edges.back();
    if (!top_bucket) {
      EXPECT_LE(kept, budget + sep.count_at_or_above(threshold) -
                           sep.count_at_or_above(edges.back()));
    }
  } else {
    EXPECT_EQ(kept, sizes.size());  // everything kept
  }

  // 3. Monotonicity: larger alpha never raises the threshold.
  const auto t_small = sep.threshold_for_fraction(0.1);
  const auto t_large = sep.threshold_for_fraction(0.9);
  EXPECT_GE(t_small, t_large);

  // 4. Total bytes conserved.
  const auto total = std::accumulate(
      sizes.begin(), sizes.end(), std::uint64_t{0},
      [](std::uint64_t acc, const auto& kv) { return acc + kv.second; });
  EXPECT_EQ(sep.total_bytes(), total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeparatorProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- record codec fuzz ----

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, DecodeNeverCrashesAndRoundTripsValid) {
  dc::Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    // Random bytes (printable-biased, embedded tabs) must never crash.
    std::string line;
    const auto len = rng.bounded(60);
    for (std::uint64_t i = 0; i < len; ++i) {
      const auto roll = rng.bounded(20);
      if (roll == 0) {
        line.push_back('\t');
      } else if (roll == 1) {
        line.push_back(static_cast<char>(rng.bounded(256)));
      } else {
        line.push_back(static_cast<char>('a' + rng.bounded(26)));
      }
    }
    const auto rv = dw::decode_record(line);
    if (rv) {
      // Anything decodable must re-encode to an equivalent record.
      const dw::Record r{rv->timestamp, std::string(rv->key),
                         std::string(rv->payload)};
      const auto re = dw::decode_record(dw::encode_record(r));
      ASSERT_TRUE(re);
      EXPECT_EQ(re->timestamp, rv->timestamp);
      EXPECT_EQ(re->key, rv->key);
      EXPECT_EQ(re->payload, rv->payload);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Range<std::uint64_t>(100, 106));

// ---- scheduler conservation laws across random graphs ----

class SchedulerLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerLaws, AllSchedulersConserveWeightAndBlocks) {
  dc::Rng rng(GetParam());
  const std::uint32_t nodes = 3 + static_cast<std::uint32_t>(rng.bounded(14));
  const std::size_t blocks = 8 + rng.bounded(120);
  const std::uint32_t repl =
      1 + static_cast<std::uint32_t>(rng.bounded(std::min(3u, nodes)));

  std::vector<datanet::graph::BlockVertex> bs;
  for (std::size_t j = 0; j < blocks; ++j) {
    datanet::graph::BlockVertex v;
    v.block_id = j;
    v.weight = rng.bounded(5000);
    while (v.hosts.size() < repl) {
      const auto n = static_cast<datanet::dfs::NodeId>(rng.bounded(nodes));
      if (std::find(v.hosts.begin(), v.hosts.end(), n) == v.hosts.end()) {
        v.hosts.push_back(n);
      }
    }
    bs.push_back(std::move(v));
  }
  const datanet::graph::BipartiteGraph g(nodes, bs);
  const std::vector<std::uint64_t> bytes(blocks, 4096);

  datanet::scheduler::LocalityScheduler loc(GetParam());
  datanet::scheduler::DataNetScheduler dn;
  datanet::scheduler::DataNetScheduler strict(
      {.strict_locality = true, .locality_bias = 0.25, .capabilities = {}});
  datanet::scheduler::FlowScheduler flow;
  for (datanet::scheduler::TaskScheduler* sched :
       {static_cast<datanet::scheduler::TaskScheduler*>(&loc),
        static_cast<datanet::scheduler::TaskScheduler*>(&dn),
        static_cast<datanet::scheduler::TaskScheduler*>(&strict),
        static_cast<datanet::scheduler::TaskScheduler*>(&flow)}) {
    const auto rec = datanet::scheduler::drain(*sched, g, bytes);
    const auto total =
        std::accumulate(rec.node_load.begin(), rec.node_load.end(), 0ull);
    EXPECT_EQ(total, g.total_weight()) << sched->name();
    EXPECT_EQ(rec.local_tasks + rec.remote_tasks, blocks) << sched->name();
    const auto input = std::accumulate(rec.node_input_bytes.begin(),
                                       rec.node_input_bytes.end(), 0ull);
    EXPECT_EQ(input, blocks * 4096) << sched->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerLaws,
                         ::testing::Range<std::uint64_t>(200, 212));

// ---- flow assignment optimality bound vs brute force ----

class FlowOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowOptimality, CapacityMatchesBruteForceOnTinyInstances) {
  // Exhaustively enumerate all block->replica assignments on tiny instances
  // and compare the optimal atomic makespan with the flow bound: the
  // fractional capacity can never exceed the atomic optimum.
  dc::Rng rng(GetParam());
  const std::uint32_t nodes = 2 + static_cast<std::uint32_t>(rng.bounded(2));
  const std::size_t blocks = 3 + rng.bounded(4);  // <= 6 blocks, 2 hosts each

  std::vector<datanet::graph::BlockVertex> bs;
  for (std::size_t j = 0; j < blocks; ++j) {
    datanet::graph::BlockVertex v;
    v.block_id = j;
    v.weight = 1 + rng.bounded(100);
    while (v.hosts.size() < 2) {
      const auto n = static_cast<datanet::dfs::NodeId>(rng.bounded(nodes));
      if (std::find(v.hosts.begin(), v.hosts.end(), n) == v.hosts.end()) {
        v.hosts.push_back(n);
      }
    }
    bs.push_back(std::move(v));
  }
  const datanet::graph::BipartiteGraph g(nodes, bs);

  // Brute force over 2^blocks replica choices.
  std::uint64_t best = ~0ull;
  for (std::uint64_t mask = 0; mask < (1ull << blocks); ++mask) {
    std::vector<std::uint64_t> load(nodes, 0);
    for (std::size_t j = 0; j < blocks; ++j) {
      const auto host = g.block(j).hosts[(mask >> j) & 1];
      load[host] += g.block(j).weight;
    }
    best = std::min(best, *std::max_element(load.begin(), load.end()));
  }

  const auto res = datanet::graph::balanced_assignment(g);
  const auto flow_makespan =
      *std::max_element(res.node_load.begin(), res.node_load.end());
  EXPECT_LE(res.fractional_capacity, best);  // fractional <= atomic optimum
  // Rounded solution within one max block weight of the optimum.
  std::uint64_t max_w = 0;
  for (std::size_t j = 0; j < blocks; ++j) {
    max_w = std::max(max_w, g.block(j).weight);
  }
  EXPECT_LE(flow_makespan, best + max_w);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowOptimality,
                         ::testing::Range<std::uint64_t>(300, 320));

// ---- parallel vs serial ElasticMap builds ----

class ParallelBuild : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ParallelBuild, IdenticalToSerial) {
  datanet::dfs::DfsOptions dopt;
  dopt.block_size = 8 * 1024;
  dopt.seed = 3;
  datanet::dfs::MiniDfs fs(datanet::dfs::ClusterTopology::flat(4), dopt);
  dw::MovieGenOptions gopt;
  gopt.num_movies = 120;
  gopt.num_records = 8000;
  dw::ingest(fs, "/log", dw::MovieLogGenerator(gopt).generate());

  const auto serial =
      de::ElasticMapArray::build(fs, "/log", {.alpha = 0.3, .build_threads = 1});
  const auto parallel = de::ElasticMapArray::build(
      fs, "/log", {.alpha = 0.3, .build_threads = GetParam()});

  ASSERT_EQ(parallel.num_blocks(), serial.num_blocks());
  EXPECT_EQ(parallel.raw_bytes(), serial.raw_bytes());
  for (std::uint64_t b = 0; b < serial.num_blocks(); ++b) {
    EXPECT_EQ(parallel.block_meta(b).serialize(),
              serial.block_meta(b).serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelBuild, ::testing::Values(2u, 4u, 8u));

// ---- engine conservation across random split layouts ----

class EngineLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineLaws, RecordAndByteConservation) {
  dc::Rng rng(GetParam());
  // Random record block content across random node placements.
  std::vector<std::string> blocks;
  std::uint64_t total_records = 0, total_bytes = 0;
  const auto nblocks = 2 + rng.bounded(10);
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    std::string data;
    const auto recs = rng.bounded(50);
    for (std::uint64_t r = 0; r < recs; ++r) {
      const auto line = std::to_string(rng.bounded(100000)) + "\tk" +
                        std::to_string(rng.bounded(5)) + "\tpayload " +
                        std::to_string(r);
      data += line + "\n";
      ++total_records;
    }
    total_bytes += data.size();
    blocks.push_back(std::move(data));
  }

  const std::uint32_t nodes = 2 + static_cast<std::uint32_t>(rng.bounded(4));
  std::vector<datanet::mapred::InputSplit> splits;
  for (const auto& b : blocks) {
    splits.push_back({.node = static_cast<std::uint32_t>(rng.bounded(nodes)),
                      .data = b,
                      .charged_bytes = 0});
  }

  datanet::mapred::Job job;
  job.config.num_reducers = 3;
  struct CountMapper final : datanet::mapred::Mapper {
    void map(const dw::RecordView& r, datanet::mapred::Emitter& out) override {
      out.emit(std::string(r.key), "1");
    }
  };
  struct CountReducer final : datanet::mapred::Reducer {
    void reduce(const datanet::mapred::Key& key,
                std::span<const datanet::mapred::Value> values,
                datanet::mapred::Emitter& out) override {
      out.emit(key, std::to_string(values.size()));
    }
  };
  job.mapper_factory = [] { return std::make_unique<CountMapper>(); };
  job.reducer_factory = [] { return std::make_unique<CountReducer>(); };

  const datanet::mapred::Engine engine({.num_nodes = nodes});
  const auto report = engine.run(job, splits);
  EXPECT_EQ(report.input_records, total_records);
  EXPECT_EQ(report.input_bytes, total_bytes);
  // Without a combiner, one intermediate pair per record.
  EXPECT_EQ(report.map_output_pairs, total_records);
  // Output counts sum to the record count.
  std::uint64_t counted = 0;
  for (const auto& [_, v] : report.output) {
    counted += std::stoull(v);
  }
  EXPECT_EQ(counted, total_records);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineLaws,
                         ::testing::Range<std::uint64_t>(400, 412));

// ---- DFS invariants under random write/decommission sequences ----

class DfsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DfsFuzz, ReplicaInvariantsSurviveFailures) {
  dc::Rng rng(GetParam());
  datanet::dfs::DfsOptions o;
  o.block_size = 512;
  o.replication = 2;
  o.seed = GetParam();
  const std::uint32_t nodes = 5 + static_cast<std::uint32_t>(rng.bounded(6));
  datanet::dfs::MiniDfs fs(datanet::dfs::ClusterTopology::flat(nodes), o);

  auto w = fs.create("/f");
  const auto recs = 100 + rng.bounded(300);
  for (std::uint64_t i = 0; i < recs; ++i) {
    w.append(std::string(10 + rng.bounded(60), 'x'));
  }
  w.close();

  // Fail up to nodes-2 random nodes.
  const auto failures = rng.bounded(nodes - 2);
  for (std::uint64_t f = 0; f < failures; ++f) {
    (void)fs.decommission(
        static_cast<datanet::dfs::NodeId>(rng.bounded(nodes)));
  }

  // Invariants: replicas distinct, on active nodes, count == min(repl,
  // active); inventories consistent with the replica map.
  for (const auto b : fs.blocks_of("/f")) {
    const auto& reps = fs.block(b).replicas;
    std::set<datanet::dfs::NodeId> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), reps.size());
    EXPECT_EQ(reps.size(),
              std::min<std::size_t>(o.replication, fs.num_active_nodes()));
    for (const auto n : reps) {
      EXPECT_TRUE(fs.is_active(n));
      const auto& inv = fs.blocks_on(n);
      EXPECT_NE(std::find(inv.begin(), inv.end(), b), inv.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsFuzz,
                         ::testing::Range<std::uint64_t>(500, 512));

// ---- job output invariance under split permutation and placement ----

#include "apps/distinct_users.hpp"
#include "apps/histogram.hpp"
#include "apps/topk_search.hpp"
#include "apps/word_count.hpp"

class JobInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JobInvariance, OutputIndependentOfSplitLayout) {
  // Generate one record stream, then run each job under two very different
  // split layouts (few big splits on few nodes vs many small splits spread
  // wide). Real MapReduce semantics demand identical outputs.
  dc::Rng rng(GetParam());
  std::vector<std::string> lines;
  for (int i = 0; i < 400; ++i) {
    lines.push_back(std::to_string(rng.bounded(10000)) + "\tk" +
                    std::to_string(rng.bounded(4)) + "\tclient=u" +
                    std::to_string(rng.bounded(40)) + " word" +
                    std::to_string(rng.bounded(30)) + " text here");
  }

  const auto layout = [&](std::size_t pieces, std::uint32_t nodes,
                          std::vector<std::string>* store) {
    store->assign(pieces, "");
    for (std::size_t i = 0; i < lines.size(); ++i) {
      (*store)[i % pieces] += lines[i] + "\n";
    }
    std::vector<datanet::mapred::InputSplit> splits;
    for (std::size_t p = 0; p < pieces; ++p) {
      splits.push_back({.node = static_cast<std::uint32_t>(p % nodes),
                        .data = (*store)[p],
                        .charged_bytes = 0});
    }
    return splits;
  };

  std::vector<std::string> store_a, store_b;
  const auto splits_a = layout(2, 1, &store_a);
  const auto splits_b = layout(16, 8, &store_b);

  const std::vector<datanet::mapred::Job> jobs = {
      datanet::apps::make_word_count_job(),
      datanet::apps::make_word_histogram_job(),
      datanet::apps::make_topk_search_job("word1 text here", 5),
      datanet::apps::make_distinct_users_job("client="),
  };
  const datanet::mapred::Engine e1({.num_nodes = 1});
  const datanet::mapred::Engine e8({.num_nodes = 8});
  for (const auto& job : jobs) {
    const auto ra = e1.run(job, splits_a);
    const auto rb = e8.run(job, splits_b);
    EXPECT_EQ(ra.output, rb.output) << job.config.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobInvariance,
                         ::testing::Range<std::uint64_t>(600, 606));

// ---- engine grouping vs a naive std::map reference ----

#include "mapred/report_json.hpp"

namespace {

// Emits (key, tag) per record plus, for every third record, a second pair
// under a longer key, so a task emits several values per key and one record
// emits to two keys. Tags are unique, so a key's output shows its value
// order.
struct TagMapper final : datanet::mapred::Mapper {
  void map(const dw::RecordView& r, datanet::mapred::Emitter& out) override {
    out.emit(std::string(r.key), std::string(r.payload));
    if (r.timestamp % 3 == 0) {
      out.emit(std::string(r.key) + "/x", std::string(r.payload) + "x");
    }
    out.count(r.timestamp % 2 ? "odd" : "even");
  }
};

// Concatenation is associative, so a combiner that joins a task's values
// leaves the reducer's join — every value in task-then-emit order —
// unchanged.
struct JoinReducer final : datanet::mapred::Reducer {
  void reduce(const datanet::mapred::Key& key,
              std::span<const datanet::mapred::Value> values,
              datanet::mapred::Emitter& out) override {
    std::string joined;
    for (const auto& v : values) {
      if (!joined.empty()) joined += ',';
      joined += v;
    }
    out.emit(key, std::move(joined));
    out.count("groups");
  }
};

}  // namespace

class EngineGrouping : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineGrouping, MatchesNaiveMapReference) {
  dc::Rng rng(GetParam());
  // Keys share a long prefix, and short suffixes over {a, b} make some keys
  // prefixes of others; numeric suffixes make enough keys to grow the
  // grouping table several times.
  const auto random_key = [&] {
    std::string key = "subdataset/shared/prefix/";
    if (rng.bounded(2) == 0) {
      const auto len = rng.bounded(4);
      for (std::uint64_t i = 0; i < len; ++i) key += rng.bounded(2) ? 'a' : 'b';
    } else {
      key += std::to_string(rng.bounded(400));
    }
    return key;
  };
  std::vector<std::string> blocks(1 + rng.bounded(9));
  std::map<std::string, std::vector<std::string>> values;
  std::map<std::string, std::uint64_t> counters;
  // A combiner counts "groups" too: once per distinct key of each split.
  std::uint64_t combiner_groups = 0;
  std::uint64_t tag = 0;
  for (auto& block : blocks) {
    const auto records = rng.bounded(300);
    std::set<std::string> block_keys;
    for (std::uint64_t r = 0; r < records; ++r, ++tag) {
      const std::string key = random_key();
      const std::string payload = "t" + std::to_string(tag);
      block += std::to_string(tag) + "\t" + key + "\t" + payload + "\n";
      values[key].push_back(payload);
      block_keys.insert(key);
      if (tag % 3 == 0) {
        values[key + "/x"].push_back(payload + "x");
        block_keys.insert(key + "/x");
      }
      ++counters[tag % 2 ? "odd" : "even"];
    }
    combiner_groups += block_keys.size();
  }
  std::map<std::string, std::string> expected;
  for (const auto& [key, vs] : values) {
    std::string joined;
    for (const auto& v : vs) joined += (joined.empty() ? "" : ",") + v;
    expected.emplace(key, joined);
  }
  if (!values.empty()) counters["groups"] = values.size();

  std::vector<datanet::mapred::InputSplit> splits;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    splits.push_back({.node = static_cast<std::uint32_t>(b % 3),
                      .data = blocks[b],
                      .charged_bytes = 0});
  }
  for (const bool combiner : {false, true}) {
    for (const std::uint32_t reducers : {1u, 8u}) {
      datanet::mapred::Job job;
      job.config.num_reducers = reducers;
      job.mapper_factory = [] { return std::make_unique<TagMapper>(); };
      job.reducer_factory = [] { return std::make_unique<JoinReducer>(); };
      auto want_counters = counters;
      if (combiner) {
        job.combiner_factory = [] { return std::make_unique<JoinReducer>(); };
        if (combiner_groups > 0) want_counters["groups"] += combiner_groups;
      }
      std::string first_json;
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << "combiner=" << combiner << " R=" << reducers
                     << " threads=" << threads);
        const datanet::mapred::Engine engine(
            {.num_nodes = 3, .execution_threads = threads});
        const auto report = engine.run(job, splits);
        EXPECT_EQ(report.output, expected);
        EXPECT_EQ(report.counters, want_counters);
        const auto json = datanet::mapred::report_to_json(report, true);
        if (first_json.empty()) first_json = json;
        EXPECT_EQ(json, first_json);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineGrouping,
                         ::testing::Range<std::uint64_t>(700, 716));
