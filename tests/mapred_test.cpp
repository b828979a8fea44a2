// Tests for the mini-MapReduce engine: real execution correctness (output
// equals a serial computation), the deterministic simulated clock, combiner
// semantics, and the paper's shuffle-phase timing model.

#include <gtest/gtest.h>

#include <charconv>
#include <map>

#include "mapred/engine.hpp"
#include "workload/record.hpp"

namespace dm = datanet::mapred;
namespace dw = datanet::workload;

namespace {

// Toy job: count records per key.
class KeyCountMapper final : public dm::Mapper {
 public:
  void map(const dw::RecordView& r, dm::Emitter& out) override {
    out.emit(std::string(r.key), "1");
  }
};

class SumReducer final : public dm::Reducer {
 public:
  void reduce(const dm::Key& key, std::span<const dm::Value> values,
              dm::Emitter& out) override {
    std::uint64_t sum = 0;
    for (const auto& v : values) {
      std::uint64_t x = 0;
      std::from_chars(v.data(), v.data() + v.size(), x);
      sum += x;
    }
    out.emit(key, std::to_string(sum));
  }
};

dm::Job key_count_job(bool combiner = true) {
  dm::Job job;
  job.config.name = "KeyCount";
  job.config.num_reducers = 4;
  job.mapper_factory = [] { return std::make_unique<KeyCountMapper>(); };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  if (combiner) {
    job.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  }
  return job;
}

std::string make_block(std::initializer_list<std::pair<const char*, int>> keys) {
  std::string data;
  std::uint64_t ts = 0;
  for (const auto& [key, count] : keys) {
    for (int i = 0; i < count; ++i) {
      data += std::to_string(ts++) + "\t" + key + "\tpayload text\n";
    }
  }
  return data;
}

}  // namespace

// ---- cost model ----

TEST(CostModel, MapSecondsComposition) {
  dm::CostModel c;
  c.io_s_per_mib = 1.0;
  c.cpu_s_per_mib = 2.0;
  c.cpu_us_per_record = 0.0;
  c.task_overhead_s = 0.5;
  c.time_scale = 1.0;
  EXPECT_DOUBLE_EQ(c.map_seconds(1 << 20, 0), 3.5);
}

TEST(CostModel, TimeScaleMultipliesDataCostsOnly) {
  dm::CostModel c;
  c.io_s_per_mib = 1.0;
  c.cpu_s_per_mib = 0.0;
  c.cpu_us_per_record = 0.0;
  c.task_overhead_s = 0.25;  // fixed startup is NOT scaled
  c.time_scale = 4.0;
  EXPECT_DOUBLE_EQ(c.map_seconds(1 << 20, 0), 4.25);
  // Shuffle/reduce act on combiner output (key-cardinality bound), so they
  // are charged on actual bytes without the scale factor.
  EXPECT_DOUBLE_EQ(c.transfer_seconds(1 << 20), c.net_s_per_mib);
  EXPECT_DOUBLE_EQ(c.reduce_seconds(1 << 20), c.reduce_s_per_mib);
}

TEST(CostModel, PerRecordCharge) {
  dm::CostModel c{};
  c.io_s_per_mib = 0.0;
  c.cpu_s_per_mib = 0.0;
  c.cpu_us_per_record = 2.0;
  c.task_overhead_s = 0.0;
  EXPECT_DOUBLE_EQ(c.map_seconds(0, 1'000'000), 2.0);
}

// ---- engine correctness ----

TEST(Engine, CountsMatchSerialTruth) {
  const auto b1 = make_block({{"a", 10}, {"b", 5}});
  const auto b2 = make_block({{"a", 3}, {"c", 7}});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(
      key_count_job(), {{.node = 0, .data = b1, .charged_bytes = 0},
                        {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("a"), "13");
  EXPECT_EQ(report.output.at("b"), "5");
  EXPECT_EQ(report.output.at("c"), "7");
  EXPECT_EQ(report.input_records, 25u);
}

TEST(Engine, CombinerDoesNotChangeOutput) {
  const auto b1 = make_block({{"x", 20}, {"y", 4}});
  const auto b2 = make_block({{"x", 1}, {"z", 9}});
  dm::Engine engine({.num_nodes = 2});
  const std::vector<dm::InputSplit> splits{{.node = 0, .data = b1, .charged_bytes = 0},
                                           {.node = 1, .data = b2, .charged_bytes = 0}};
  const auto with = engine.run(key_count_job(true), splits);
  const auto without = engine.run(key_count_job(false), splits);
  EXPECT_EQ(with.output, without.output);
  // But the combiner shrinks the shuffle.
  EXPECT_LT(with.shuffle_bytes, without.shuffle_bytes);
  EXPECT_LT(with.map_output_pairs, without.map_output_pairs);
}

TEST(Engine, EmptyInputProducesEmptyOutput) {
  dm::Engine engine({.num_nodes = 1});
  const auto report = engine.run(key_count_job(), {});
  EXPECT_TRUE(report.output.empty());
  EXPECT_DOUBLE_EQ(report.total_seconds, 0.0);
}

TEST(Engine, SkippedLinesCounted) {
  const std::string bad = "garbage line\n1\ta\tok\nmore garbage\n";
  dm::Engine engine({.num_nodes = 1});
  const auto report =
      engine.run(key_count_job(), {{.node = 0, .data = bad, .charged_bytes = 0}});
  EXPECT_EQ(report.skipped_lines, 2u);
  EXPECT_EQ(report.input_records, 1u);
}

TEST(Engine, DeterministicOutputAcrossThreadCounts) {
  const auto b1 = make_block({{"a", 50}, {"b", 30}});
  const auto b2 = make_block({{"b", 20}, {"c", 40}});
  const auto b3 = make_block({{"a", 5}, {"c", 5}});
  const std::vector<dm::InputSplit> splits{{.node = 0, .data = b1, .charged_bytes = 0},
                                           {.node = 1, .data = b2, .charged_bytes = 0},
                                           {.node = 2, .data = b3, .charged_bytes = 0}};
  dm::Engine e1({.num_nodes = 3, .slots_per_node = 2, .execution_threads = 1});
  dm::Engine e8({.num_nodes = 3, .slots_per_node = 2, .execution_threads = 8});
  const auto r1 = e1.run(key_count_job(), splits);
  const auto r8 = e8.run(key_count_job(), splits);
  EXPECT_EQ(r1.output, r8.output);
  EXPECT_DOUBLE_EQ(r1.map_phase_seconds, r8.map_phase_seconds);
  EXPECT_DOUBLE_EQ(r1.total_seconds, r8.total_seconds);
}

TEST(Engine, RejectsBadConfigs) {
  EXPECT_THROW((void)dm::Engine({.num_nodes = 0}), std::invalid_argument);
  EXPECT_THROW((void)dm::Engine({.num_nodes = 1, .slots_per_node = 0}),
               std::invalid_argument);
  dm::Engine engine({.num_nodes = 1});
  dm::Job no_mapper = key_count_job();
  no_mapper.mapper_factory = nullptr;
  EXPECT_THROW(engine.run(no_mapper, {}), std::invalid_argument);
  dm::Job zero_reducers = key_count_job();
  zero_reducers.config.num_reducers = 0;
  EXPECT_THROW(engine.run(zero_reducers, {}), std::invalid_argument);
  const auto b = make_block({{"a", 1}});
  EXPECT_THROW(
      engine.run(key_count_job(), {{.node = 5, .data = b, .charged_bytes = 0}}),
      std::invalid_argument);
}

// ---- simulated timing ----

TEST(Timing, NodeMapTimeIsSlotSchedule) {
  // 4 equal tasks on one node with 2 slots -> node time = 2 task durations.
  const auto b = make_block({{"a", 10}});
  dm::Job job = key_count_job();
  job.config.cost = {};
  job.config.cost.io_s_per_mib = 0.0;
  job.config.cost.cpu_s_per_mib = 0.0;
  job.config.cost.cpu_us_per_record = 0.0;
  job.config.cost.task_overhead_s = 1.0;
  dm::Engine engine({.num_nodes = 1, .slots_per_node = 2});
  const std::vector<dm::InputSplit> splits(
      4, {.node = 0, .data = b, .charged_bytes = 0});
  const auto report = engine.run(job, splits);
  EXPECT_DOUBLE_EQ(report.node_map_seconds[0], 2.0);
  EXPECT_DOUBLE_EQ(report.map_phase_seconds, 2.0);
  EXPECT_DOUBLE_EQ(report.first_map_finish_seconds, 1.0);
}

TEST(Timing, MapPhaseIsMaxOverNodes) {
  const auto b = make_block({{"a", 10}});
  dm::Job job = key_count_job();
  job.config.cost = {};
  job.config.cost.task_overhead_s = 1.0;
  job.config.cost.io_s_per_mib = 0.0;
  job.config.cost.cpu_s_per_mib = 0.0;
  job.config.cost.cpu_us_per_record = 0.0;
  dm::Engine engine({.num_nodes = 2, .slots_per_node = 1});
  // Node 0 gets 3 tasks, node 1 gets 1.
  const std::vector<dm::InputSplit> splits{{.node = 0, .data = b, .charged_bytes = 0},
                                           {.node = 0, .data = b, .charged_bytes = 0},
                                           {.node = 0, .data = b, .charged_bytes = 0},
                                           {.node = 1, .data = b, .charged_bytes = 0}};
  const auto report = engine.run(job, splits);
  EXPECT_DOUBLE_EQ(report.node_map_seconds[0], 3.0);
  EXPECT_DOUBLE_EQ(report.node_map_seconds[1], 1.0);
  EXPECT_DOUBLE_EQ(report.map_phase_seconds, 3.0);
}

TEST(Timing, ShuffleStretchesWithImbalance) {
  // Same total work, balanced vs imbalanced placement: the imbalanced run
  // must show a longer shuffle phase (the Fig. 7 mechanism).
  const auto b = make_block({{"k", 40}});
  dm::Job job = key_count_job();
  job.config.cost.task_overhead_s = 1.0;
  dm::Engine engine({.num_nodes = 4, .slots_per_node = 1});

  std::vector<dm::InputSplit> balanced, skewed;
  for (int i = 0; i < 8; ++i) {
    balanced.push_back({.node = static_cast<std::uint32_t>(i % 4),
                        .data = b,
                        .charged_bytes = 0});
    skewed.push_back({.node = 0, .data = b, .charged_bytes = 0});
  }
  const auto rb = engine.run(job, balanced);
  const auto rs = engine.run(job, skewed);
  EXPECT_EQ(rb.output, rs.output);
  EXPECT_GT(rs.shuffle_phase_seconds, 2.0 * rb.shuffle_phase_seconds);
  EXPECT_GT(rs.total_seconds, rb.total_seconds);
}

TEST(Timing, ChargedBytesOverrideData) {
  const auto b = make_block({{"a", 100}});
  dm::Job job = key_count_job();
  job.config.cost = {};
  job.config.cost.io_s_per_mib = 1.0;
  job.config.cost.cpu_s_per_mib = 0.0;
  job.config.cost.cpu_us_per_record = 0.0;
  job.config.cost.task_overhead_s = 0.0;
  dm::Engine engine({.num_nodes = 1, .slots_per_node = 1});
  const auto normal =
      engine.run(job, {{.node = 0, .data = b, .charged_bytes = 0}});
  const auto penalized =
      engine.run(job, {{.node = 0, .data = b, .charged_bytes = 2 * b.size()}});
  EXPECT_NEAR(penalized.map_phase_seconds, 2.0 * normal.map_phase_seconds, 1e-12);
}

TEST(Timing, TaskTimingsConsistent) {
  const auto b = make_block({{"a", 20}});
  dm::Engine engine({.num_nodes = 2, .slots_per_node = 2});
  const std::vector<dm::InputSplit> splits(
      6, {.node = 0, .data = b, .charged_bytes = 0});
  const auto report = engine.run(key_count_job(), splits);
  ASSERT_EQ(report.map_tasks.size(), 6u);
  for (const auto& t : report.map_tasks) {
    EXPECT_GE(t.finish, t.start);
    EXPECT_LE(t.finish, report.map_phase_seconds + 1e-12);
  }
}

TEST(Timing, ReduceAndShuffleSizedByPartitions) {
  const auto b1 = make_block({{"a", 30}});
  dm::Engine engine({.num_nodes = 1});
  dm::Job job = key_count_job();
  job.config.num_reducers = 8;
  const auto report =
      engine.run(job, {{.node = 0, .data = b1, .charged_bytes = 0}});
  EXPECT_EQ(report.shuffle_task_seconds.size(), 8u);
  EXPECT_EQ(report.reduce_task_seconds.size(), 8u);
  // Exactly one key => exactly one nonzero partition.
  int nonzero = 0;
  for (const auto r : report.reduce_task_seconds) nonzero += (r > 0.0);
  EXPECT_EQ(nonzero, 1);
}

// ---- named counters ----

namespace {
class CountingMapper final : public dm::Mapper {
 public:
  void map(const dw::RecordView& r, dm::Emitter& out) override {
    out.count("records_seen");
    if (r.key == "a") out.count("a_records", 2);
    out.emit(std::string(r.key), "1");
  }
};
class CountingReducer final : public dm::Reducer {
 public:
  void reduce(const dm::Key& key, std::span<const dm::Value> values,
              dm::Emitter& out) override {
    out.count("keys_reduced");
    out.emit(key, std::to_string(values.size()));
  }
};
}  // namespace

TEST(Engine, DeterministicShuffleAndReduceAcrossThreadCounts) {
  // Shuffle-heavy job: many distinct keys across many splits, >= 8 reducers,
  // so the parallel partition-gather and reduce stages actually fan out.
  // Everything observable must be bit-identical at 1 and 8 threads.
  std::vector<std::string> blocks;
  for (int s = 0; s < 6; ++s) {
    std::string data;
    for (int i = 0; i < 400; ++i) {
      data += std::to_string(i) + "\tkey_" +
              std::to_string((s * 131 + i * 7) % 97) + "\tpayload\n";
    }
    blocks.push_back(std::move(data));
  }
  std::vector<dm::InputSplit> splits;
  for (int s = 0; s < 6; ++s) {
    splits.push_back({.node = static_cast<std::uint32_t>(s % 3),
                      .data = blocks[s],
                      .charged_bytes = 0});
  }
  dm::Job job;
  job.config.num_reducers = 11;
  job.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  job.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  dm::Engine e1({.num_nodes = 3, .slots_per_node = 2, .execution_threads = 1});
  dm::Engine e8({.num_nodes = 3, .slots_per_node = 2, .execution_threads = 8});
  const auto r1 = e1.run(job, splits);
  const auto r8 = e8.run(job, splits);
  EXPECT_EQ(r1.output, r8.output);
  EXPECT_EQ(r1.counters, r8.counters);
  EXPECT_EQ(r1.map_output_pairs, r8.map_output_pairs);
  EXPECT_EQ(r1.shuffle_bytes, r8.shuffle_bytes);
  EXPECT_EQ(r1.input_records, r8.input_records);
  EXPECT_DOUBLE_EQ(r1.total_seconds, r8.total_seconds);
  EXPECT_EQ(r1.shuffle_task_seconds, r8.shuffle_task_seconds);
  EXPECT_EQ(r1.reduce_task_seconds, r8.reduce_task_seconds);
}

TEST(Counters, MergedAcrossTasksAndPhases) {
  const auto b1 = make_block({{"a", 3}, {"b", 2}});
  const auto b2 = make_block({{"a", 1}, {"c", 4}});
  dm::Job job;
  job.config.num_reducers = 4;
  job.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  job.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(job, {{.node = 0, .data = b1, .charged_bytes = 0},
                                       {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.counters.at("records_seen"), 10u);
  EXPECT_EQ(report.counters.at("a_records"), 8u);  // 4 'a' records x 2
  EXPECT_EQ(report.counters.at("keys_reduced"), 3u);  // a, b, c
}

TEST(Counters, DeterministicAcrossThreadCounts) {
  const auto b = make_block({{"a", 20}, {"b", 10}});
  dm::Job job;
  job.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  job.reducer_factory = [] { return std::make_unique<CountingReducer>(); };
  const std::vector<dm::InputSplit> splits(
      4, {.node = 0, .data = b, .charged_bytes = 0});
  dm::Engine e1({.num_nodes = 1, .slots_per_node = 2, .execution_threads = 1});
  dm::Engine e8({.num_nodes = 1, .slots_per_node = 2, .execution_threads = 8});
  EXPECT_EQ(e1.run(job, splits).counters, e8.run(job, splits).counters);
}

TEST(Counters, CombinerCountsReachReportAtEveryThreadCount) {
  // A combiner's Emitter::count calls are part of the job's counters, just
  // like a mapper's or a reducer's. Each map task combines its own keys, so
  // "keys_reduced" sums the distinct keys of every split.
  const auto b1 = make_block({{"a", 3}, {"b", 2}});
  const auto b2 = make_block({{"a", 1}, {"c", 4}});
  dm::Job job;
  job.config.num_reducers = 4;
  job.mapper_factory = [] { return std::make_unique<CountingMapper>(); };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  job.combiner_factory = [] { return std::make_unique<CountingReducer>(); };
  const std::vector<dm::InputSplit> splits = {
      {.node = 0, .data = b1, .charged_bytes = 0},
      {.node = 1, .data = b2, .charged_bytes = 0}};
  for (const std::uint32_t threads : {1u, 4u}) {
    dm::Engine engine({.num_nodes = 2, .execution_threads = threads});
    const auto report = engine.run(job, splits);
    const std::map<std::string, std::uint64_t> want = {
        {"a_records", 8}, {"keys_reduced", 4}, {"records_seen", 10}};
    EXPECT_EQ(report.counters, want) << "threads=" << threads;
    EXPECT_EQ(report.output.at("a"), "4") << "threads=" << threads;
  }
}

TEST(Counters, AbsentWhenUnused) {
  const auto b = make_block({{"a", 2}});
  dm::Engine engine({.num_nodes = 1});
  const auto report =
      engine.run(key_count_job(), {{.node = 0, .data = b, .charged_bytes = 0}});
  EXPECT_TRUE(report.counters.empty());
}

// ---- JSON report serialization ----

#include "mapred/report_json.hpp"

TEST(ReportJson, ContainsTimingAggregatesAndCounters) {
  const auto b = make_block({{"a", 5}, {"b", 3}});
  dm::Engine engine({.num_nodes = 2});
  const auto report =
      engine.run(key_count_job(), {{.node = 0, .data = b, .charged_bytes = 0}});
  const auto json = dm::report_to_json(report);
  EXPECT_NE(json.find("\"total_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"input_records\":8"), std::string::npos);
  EXPECT_NE(json.find("\"output_keys\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"output\":"), std::string::npos);  // not included
  const auto with_output = dm::report_to_json(report, /*include_output=*/true);
  EXPECT_NE(with_output.find("\"output\":{"), std::string::npos);
  EXPECT_NE(with_output.find("\"a\":\"5\""), std::string::npos);
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(with_output.begin(), with_output.end(), '{'),
            std::count(with_output.begin(), with_output.end(), '}'));
}
