// Tests for the second wave of library features: Gamma model fitting,
// varint encoding, the sessionization job, the LPT scheduler, and record
// file I/O.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "apps/sessionize.hpp"
#include "common/rng.hpp"
#include "common/varint.hpp"
#include "datanet/experiment.hpp"
#include "mapred/engine.hpp"
#include "scheduler/datanet_sched.hpp"
#include "scheduler/lpt.hpp"
#include "stats/descriptive.hpp"
#include "stats/fit.hpp"
#include "stats/gamma.hpp"
#include "workload/io.hpp"
#include "workload/movie_gen.hpp"

namespace dc = datanet::core;
namespace ds = datanet::stats;
namespace dw = datanet::workload;
namespace dsch = datanet::scheduler;

// ---- digamma + gamma fitting ----

TEST(Digamma, KnownValues) {
  // psi(1) = -gamma_EM; psi(2) = 1 - gamma_EM; psi(0.5) = -gamma_EM - 2 ln 2.
  constexpr double kEuler = 0.5772156649015329;
  EXPECT_NEAR(ds::digamma(1.0), -kEuler, 1e-10);
  EXPECT_NEAR(ds::digamma(2.0), 1.0 - kEuler, 1e-10);
  EXPECT_NEAR(ds::digamma(0.5), -kEuler - 2.0 * std::log(2.0), 1e-10);
  EXPECT_NEAR(ds::digamma(10.0), 2.251752589066721, 1e-10);
}

TEST(Digamma, RecurrenceHolds) {
  // psi(x+1) = psi(x) + 1/x.
  for (double x : {0.3, 1.7, 4.2, 25.0}) {
    EXPECT_NEAR(ds::digamma(x + 1.0), ds::digamma(x) + 1.0 / x, 1e-10);
  }
}

TEST(Digamma, RejectsNonPositive) {
  EXPECT_THROW((void)ds::digamma(0.0), std::invalid_argument);
  EXPECT_THROW((void)ds::digamma(-1.0), std::invalid_argument);
}

TEST(GammaFit, RecoversParametersFromSamples) {
  const ds::GammaDistribution g(1.2, 7.0);  // paper parameters
  datanet::common::Rng rng(99);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = g.sample(rng);
  const auto mom = ds::fit_gamma_moments(xs);
  const auto mle = ds::fit_gamma_mle(xs);
  EXPECT_NEAR(mom.shape, 1.2, 0.1);
  EXPECT_NEAR(mom.scale, 7.0, 0.5);
  EXPECT_NEAR(mle.shape, 1.2, 0.05);
  EXPECT_NEAR(mle.scale, 7.0, 0.3);
  EXPECT_GT(mle.iterations, 0);
}

TEST(GammaFit, MleBeatsMomentsOnSkewedData) {
  // For small shapes MLE is markedly more efficient than moments.
  const ds::GammaDistribution g(0.4, 3.0);
  datanet::common::Rng rng(5);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = g.sample(rng);
  const auto mle = ds::fit_gamma_mle(xs);
  EXPECT_NEAR(mle.shape, 0.4, 0.03);
}

TEST(GammaFit, RejectsBadInput) {
  EXPECT_THROW((void)ds::fit_gamma_moments(std::vector<double>{1.0}),
               std::invalid_argument);
  const std::vector<double> with_zero{1.0, 0.0, 2.0};
  EXPECT_THROW((void)ds::fit_gamma_mle(with_zero), std::invalid_argument);
}

TEST(GammaFit, DegenerateEqualSamples) {
  const std::vector<double> same{5.0, 5.0, 5.0, 5.0};
  const auto fit = ds::fit_gamma_mle(same);
  EXPECT_GT(fit.shape, 1e6);  // near-deterministic
  EXPECT_NEAR(fit.shape * fit.scale, 5.0, 1e-3);
}

// ---- varint ----

TEST(Varint, RoundTripBoundaries) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, (1ull << 32),
        ~0ull}) {
    std::string buf;
    datanet::common::put_varint(buf, v);
    EXPECT_EQ(buf.size(), datanet::common::varint_length(v));
    std::size_t off = 0;
    const auto back = datanet::common::get_varint(buf, off);
    ASSERT_TRUE(back) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(Varint, SequencesDecodeInOrder) {
  std::string buf;
  datanet::common::Rng rng(3);
  std::vector<std::uint64_t> values(500);
  for (auto& v : values) {
    v = rng() >> (rng.bounded(64));
    datanet::common::put_varint(buf, v);
  }
  std::size_t off = 0;
  for (const auto v : values) {
    const auto got = datanet::common::get_varint(buf, off);
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(off, buf.size());
}

TEST(Varint, TruncationDetected) {
  std::string buf;
  datanet::common::put_varint(buf, 1ull << 40);
  buf.pop_back();
  std::size_t off = 0;
  EXPECT_FALSE(datanet::common::get_varint(buf, off));
}

TEST(Varint, SmallSizesAreCompact) {
  EXPECT_EQ(datanet::common::varint_length(100), 1u);
  EXPECT_EQ(datanet::common::varint_length(5000), 2u);
  EXPECT_EQ(datanet::common::varint_length(1u << 20), 3u);
}

// ---- sessionize ----

TEST(Sessionize, ExtractField) {
  using datanet::apps::extract_field;
  EXPECT_EQ(extract_field("client=c42 method=GET", "client="), "c42");
  EXPECT_EQ(extract_field("method=GET client=c42", "client="), "c42");
  EXPECT_EQ(extract_field("method=GET", "client="), "");
  EXPECT_EQ(extract_field("xclient=c9 client=c1", "client="), "c1");
  EXPECT_EQ(extract_field("client=", "client="), "");
}

TEST(Sessionize, CountsSessionsBySplittingGaps) {
  // Entity u1: events at 0, 100, 5000 with gap 1000 => 2 sessions,
  // total span (100-0) + 0 = 100.
  const std::string data =
      "0\tk\tuser=u1 x\n"
      "100\tk\tuser=u1 y\n"
      "5000\tk\tuser=u1 z\n"
      "50\tk\tuser=u2 a\n";
  datanet::mapred::Engine engine({.num_nodes = 1});
  const auto report = engine.run(
      datanet::apps::make_sessionize_job("user=", 1000),
      {{.node = 0, .data = data, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("u1"), "sessions=2 events=3 span=100");
  EXPECT_EQ(report.output.at("u2"), "sessions=1 events=1 span=0");
}

TEST(Sessionize, MergesAcrossSplits) {
  // The same user's events arrive in two map tasks; the reducer must merge
  // and sort them before splitting sessions.
  const std::string b1 = "100\tk\tuser=u1 x\n";
  const std::string b2 = "0\tk\tuser=u1 y\n900\tk\tuser=u1 z\n";
  datanet::mapred::Engine engine({.num_nodes = 2});
  const auto report =
      engine.run(datanet::apps::make_sessionize_job("user=", 1000),
                 {{.node = 0, .data = b1, .charged_bytes = 0},
                  {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("u1"), "sessions=1 events=3 span=900");
}

TEST(Sessionize, RejectsBadArgs) {
  EXPECT_THROW(datanet::apps::make_sessionize_job("", 100),
               std::invalid_argument);
  EXPECT_THROW(datanet::apps::make_sessionize_job("u=", 0),
               std::invalid_argument);
}

// ---- LPT scheduler ----

namespace {
datanet::graph::BipartiteGraph lpt_graph(std::uint32_t nodes, std::size_t blocks,
                                         std::uint64_t seed) {
  datanet::common::Rng rng(seed);
  std::vector<datanet::graph::BlockVertex> bs;
  for (std::size_t j = 0; j < blocks; ++j) {
    datanet::graph::BlockVertex v;
    v.block_id = j;
    v.weight = j < blocks / 4 ? 2000 + rng.bounded(8000) : rng.bounded(60);
    while (v.hosts.size() < 3) {
      const auto n = static_cast<datanet::dfs::NodeId>(rng.bounded(nodes));
      if (std::find(v.hosts.begin(), v.hosts.end(), n) == v.hosts.end()) {
        v.hosts.push_back(n);
      }
    }
    bs.push_back(std::move(v));
  }
  return datanet::graph::BipartiteGraph(nodes, std::move(bs));
}
}  // namespace

TEST(Lpt, AssignsEverythingOnce) {
  const auto g = lpt_graph(8, 96, 3);
  dsch::LptScheduler sched;
  const auto rec = dsch::drain(
      sched, g, std::vector<std::uint64_t>(g.num_blocks(), 1 << 20));
  std::uint64_t total = 0;
  for (const auto l : rec.node_load) total += l;
  EXPECT_EQ(total, g.total_weight());
}

TEST(Lpt, BalancesClusteredWeights) {
  const auto g = lpt_graph(16, 256, 7);
  dsch::LptScheduler sched;
  const auto rec = dsch::drain(
      sched, g, std::vector<std::uint64_t>(g.num_blocks(), 1 << 20));
  std::vector<double> loads(rec.node_load.begin(), rec.node_load.end());
  const auto s = ds::summarize(loads);
  EXPECT_LT(s.coeff_variation(), 0.35);
}

TEST(Lpt, DrainNeverWorseThanPlan) {
  const auto g = lpt_graph(8, 128, 11);
  dsch::LptScheduler sched;
  const auto rec = dsch::drain(
      sched, g, std::vector<std::uint64_t>(g.num_blocks(), 1 << 20));
  // Fair-order draining may steal from long queues (work conservation),
  // which can only reduce the maximum planned load; totals are conserved.
  dsch::LptScheduler fresh;
  fresh.reset(g);
  const auto planned = fresh.planned_loads();
  const auto planned_total =
      std::accumulate(planned.begin(), planned.end(), std::uint64_t{0});
  const auto drained_total =
      std::accumulate(rec.node_load.begin(), rec.node_load.end(), std::uint64_t{0});
  EXPECT_EQ(planned_total, drained_total);
  // Stealing moves only light tasks, so the drained makespan stays within a
  // few percent of the static plan.
  EXPECT_LE(static_cast<double>(
                *std::max_element(rec.node_load.begin(), rec.node_load.end())),
            1.05 * static_cast<double>(
                       *std::max_element(planned.begin(), planned.end())));
}

TEST(Lpt, ComparableToAlgorithm1) {
  const auto g = lpt_graph(16, 256, 13);
  const std::vector<std::uint64_t> bytes(g.num_blocks(), 1 << 20);
  dsch::LptScheduler lpt;
  dsch::DataNetScheduler dn;
  const auto rl = dsch::drain(lpt, g, bytes);
  const auto rd = dsch::drain(dn, g, bytes);
  const auto ml = *std::max_element(rl.node_load.begin(), rl.node_load.end());
  const auto md = *std::max_element(rd.node_load.begin(), rd.node_load.end());
  // Both distribution-aware; neither should be wildly worse.
  EXPECT_LT(static_cast<double>(ml), 1.5 * static_cast<double>(md));
  EXPECT_LT(static_cast<double>(md), 1.5 * static_cast<double>(ml));
}

// ---- record file I/O ----

namespace {
struct TempDir {
  std::filesystem::path dir;
  TempDir() {
    dir = std::filesystem::temp_directory_path() /
          ("datanet_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
  }
  ~TempDir() { std::filesystem::remove_all(dir); }
  std::string file(const std::string& name) const { return (dir / name).string(); }
};
}  // namespace

TEST(RecordIo, SaveLoadRoundTrip) {
  TempDir tmp;
  dw::MovieGenOptions o;
  o.num_movies = 20;
  o.num_records = 500;
  const auto records = dw::MovieLogGenerator(o).generate();
  const auto bytes = dw::save_records(tmp.file("r.log"), records);
  EXPECT_GT(bytes, 0u);

  dw::LoadStats stats;
  const auto loaded = dw::load_records(tmp.file("r.log"), &stats);
  EXPECT_EQ(stats.loaded, records.size());
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); i += 37) {
    EXPECT_EQ(loaded[i].timestamp, records[i].timestamp);
    EXPECT_EQ(loaded[i].key, records[i].key);
    EXPECT_EQ(loaded[i].payload, records[i].payload);
  }
}

TEST(RecordIo, SkipsMalformedLines) {
  TempDir tmp;
  {
    std::ofstream f(tmp.file("bad.log"));
    f << "1\ta\tok\n"
      << "garbage line\n"
      << "\n"
      << "2\tb\talso ok\n";
  }
  dw::LoadStats stats;
  const auto loaded = dw::load_records(tmp.file("bad.log"), &stats);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(stats.skipped, 1u);  // empty lines are ignored, not "skipped"
}

TEST(RecordIo, IngestFileIntoDfs) {
  TempDir tmp;
  dw::MovieGenOptions o;
  o.num_movies = 30;
  o.num_records = 2000;
  const auto records = dw::MovieLogGenerator(o).generate();
  dw::save_records(tmp.file("in.log"), records);

  datanet::dfs::DfsOptions dopt;
  dopt.block_size = 8192;
  datanet::dfs::MiniDfs fs(datanet::dfs::ClusterTopology::flat(4), dopt);
  dw::LoadStats stats;
  const auto blocks = dw::ingest_file(fs, "/x", tmp.file("in.log"), &stats);
  EXPECT_EQ(stats.loaded, records.size());
  EXPECT_GT(blocks, 1u);

  std::uint64_t count = 0;
  for (const auto b : fs.blocks_of("/x")) {
    dw::for_each_record(fs.read_block(b), [&](const dw::RecordView&) { ++count; });
  }
  EXPECT_EQ(count, records.size());
}

TEST(RecordIo, ThrowsOnMissingFile) {
  EXPECT_THROW(dw::load_records("/nonexistent/file.log"), std::runtime_error);
  datanet::dfs::MiniDfs fs(datanet::dfs::ClusterTopology::flat(4), {});
  EXPECT_THROW(dw::ingest_file(fs, "/x", "/nonexistent/file.log"),
               std::runtime_error);
}
