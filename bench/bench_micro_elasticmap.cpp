// Micro-benchmarks for the ElasticMap core: single-scan construction
// throughput (the paper's O(m*n) claim — linear in the raw data), query
// latency, and serialization.

#include <benchmark/benchmark.h>

#include "datanet/experiment.hpp"
#include "elasticmap/elastic_map.hpp"
#include "elasticmap/separator.hpp"

namespace {

using namespace datanet;

const core::StoredDataset& dataset() {
  static const core::StoredDataset ds = [] {
    core::ExperimentConfig cfg;
    cfg.num_nodes = 16;
    cfg.block_size = 64 * 1024;
    return core::make_movie_dataset(cfg, /*num_blocks=*/64, /*num_movies=*/2000);
  }();
  return ds;
}

void BM_ElasticMapBuild(benchmark::State& state) {
  const auto& ds = dataset();
  const double alpha = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto em = elasticmap::ElasticMapArray::build(*ds.dfs, ds.path, {.alpha = alpha});
    benchmark::DoNotOptimize(em);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(ds.dfs->total_bytes()));
}
BENCHMARK(BM_ElasticMapBuild)->Arg(10)->Arg(30)->Arg(100);

void BM_ElasticMapQueryDistribution(benchmark::State& state) {
  const auto& ds = dataset();
  static const auto em =
      elasticmap::ElasticMapArray::build(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto id = workload::subdataset_id(ds.hot_keys[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(em.distribution(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElasticMapQueryDistribution);

void BM_ElasticMapEstimateTotal(benchmark::State& state) {
  const auto& ds = dataset();
  static const auto em =
      elasticmap::ElasticMapArray::build(*ds.dfs, ds.path, {.alpha = 0.3});
  const auto id = workload::subdataset_id(ds.hot_keys[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(em.estimate_total_size(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElasticMapEstimateTotal);

void BM_BlockMetaSerialize(benchmark::State& state) {
  const auto& ds = dataset();
  static const auto em =
      elasticmap::ElasticMapArray::build(*ds.dfs, ds.path, {.alpha = 0.3});
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (std::uint64_t b = 0; b < em.num_blocks(); ++b) {
      const auto s = em.block_meta(b).serialize();
      bytes += s.size();
      benchmark::DoNotOptimize(s);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_BlockMetaSerialize);

void BM_ElasticMapBuildParallel(benchmark::State& state) {
  const auto& ds = dataset();
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto em = elasticmap::ElasticMapArray::build(
        *ds.dfs, ds.path, {.alpha = 0.3, .build_threads = threads});
    benchmark::DoNotOptimize(em);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.dfs->total_bytes()));
}
BENCHMARK(BM_ElasticMapBuildParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Single-scan separator throughput: the O(m) bucket update path.
void BM_SeparatorAdd(benchmark::State& state) {
  const auto opts = elasticmap::SeparatorOptions::for_block_size(64ull << 20);
  datanet::common::Rng rng(4);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> updates(100000);
  for (auto& [id, sz] : updates) {
    id = rng.bounded(5000);
    sz = 20 + rng.bounded(200);
  }
  for (auto _ : state) {
    elasticmap::DominantSeparator sep(opts);
    for (const auto& [id, sz] : updates) sep.add(id, sz);
    benchmark::DoNotOptimize(sep.threshold_for_fraction(0.3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(updates.size()));
}
BENCHMARK(BM_SeparatorAdd);

}  // namespace

BENCHMARK_MAIN();
