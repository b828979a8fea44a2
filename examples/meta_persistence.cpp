// Meta-data lifecycle for a production deployment (Section V-B-1's "stored
// into a database or distributed among multiple machines"): build the
// ElasticMap once, persist it, reload it lazily on a memory-constrained
// master, shard it across several master machines, and keep it fresh as the
// log grows (incremental extend) — all without rescanning old data.

#include <cstdio>
#include <filesystem>

#include "common/units.hpp"
#include "datanet/experiment.hpp"
#include "elasticmap/meta_store.hpp"
#include "workload/movie_gen.hpp"

int main() {
  using namespace datanet;
  const auto dir =
      std::filesystem::temp_directory_path() / "datanet_meta_example";
  std::filesystem::create_directories(dir);

  // Day 1: ingest the first month of logs and build the meta-data.
  dfs::DfsOptions dopt;
  dopt.block_size = 64 * 1024;
  dopt.seed = 11;
  dfs::MiniDfs fs(dfs::ClusterTopology::flat(16), dopt);

  workload::MovieGenOptions gopt;
  gopt.num_movies = 800;
  gopt.num_records = 120'000;
  const auto records = workload::MovieLogGenerator(gopt).generate();

  auto writer = fs.create("/logs/reviews");
  const std::size_t first_batch = records.size() * 2 / 3;
  for (std::size_t i = 0; i < first_batch; ++i) {
    writer.append(workload::encode_record(records[i]));
  }

  auto em = elasticmap::ElasticMapArray::build(fs, "/logs/reviews",
                                               {.alpha = 0.3, .build_threads = 0});
  std::printf("built ElasticMap over %llu blocks: %s of meta for %s of data\n",
              static_cast<unsigned long long>(em.num_blocks()),
              common::format_bytes(em.memory_bytes()).c_str(),
              common::format_bytes(em.raw_bytes()).c_str());

  // Persist: one file for the master, and 4 shards for a distributed setup.
  const auto store = (dir / "meta.bin").string();
  elasticmap::MetaStore::save(em, store);
  elasticmap::ShardedMetaStore::save(em, (dir / "meta").string(), 4);
  std::printf("persisted to %s (+4 shards), file size %s\n", store.c_str(),
              common::format_bytes(std::filesystem::file_size(store)).c_str());

  // A memory-constrained master: lazy reader touches one block at a time.
  elasticmap::MetaStore::Reader reader(store);
  const auto mid = reader.num_blocks() / 2;
  const auto meta = reader.load_block(mid);
  std::printf("lazy reader: block %llu holds %llu dominant + %llu tail "
              "sub-datasets (one seek, no full load)\n",
              static_cast<unsigned long long>(mid),
              static_cast<unsigned long long>(meta.num_dominant()),
              static_cast<unsigned long long>(meta.num_tail()));

  // Day 2: more logs arrive; extend covers only the new blocks.
  for (std::size_t i = first_batch; i < records.size(); ++i) {
    writer.append(workload::encode_record(records[i]));
  }
  writer.close();
  const auto added = em.extend(fs);
  std::printf("log grew: %llu new blocks scanned incrementally (now %llu)\n",
              static_cast<unsigned long long>(added),
              static_cast<unsigned long long>(em.num_blocks()));
  elasticmap::MetaStore::save(em, store);  // refresh the persisted copy

  std::filesystem::remove_all(dir);
  return 0;
}
