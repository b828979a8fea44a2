#pragma once
// Persistence for ElasticMap meta-data (the paper's Section V-B-1 note:
// "as the problem size becomes extremely large, the meta-data ... can be
// stored into a database or distributed among multiple machines").
//
// Two layers:
//  * MetaStore — a single file: header, per-block (offset, length) index,
//    then serialized BlockMetas. Supports eager full load and a lazy Reader
//    that deserializes one block's meta on demand (the "does not fit in the
//    master's memory" regime).
//  * ShardedMetaStore — partitions the block index across S shard files
//    (block i lives in shard i % S), modeling meta-data spread over
//    multiple master machines.

// Durability: every blob carries a CRC32 in its index entry, so a
// bit-flipped store fails with MetaStoreCorruptError instead of feeding
// garbage to BlockMeta::deserialize; writes go to `<path>.tmp` and rename
// over the target, so a crash mid-save leaves the previous store intact.
// Stores and shards are written and read in one format version (2); any
// other version word is a MetaStoreCorruptError.

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfs/hash_ring.hpp"
#include "elasticmap/elastic_map.hpp"

namespace datanet::elasticmap {

// A store file that is structurally invalid: bad magic/version, truncated,
// out-of-bounds index, or a blob whose CRC32 no longer matches its index
// entry. Derives from std::runtime_error, like the open/write failures.
class MetaStoreCorruptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class MetaStore {
 public:
  // Write the full array to `file_path` (crash-atomic: tmp file + rename).
  static void save(const ElasticMapArray& array, const std::string& file_path);

  // Read the whole file back into memory.
  static ElasticMapArray load(const std::string& file_path);

  // One index entry: where a block's serialized meta lives in the file.
  struct IndexEntry {
    std::uint64_t global_index;  // position in the full array
    dfs::BlockId block_id;
    std::uint64_t offset;  // relative to the end of the index
    std::uint64_t length;
    std::uint32_t crc;  // CRC32 of the blob
  };

  // Lazy access: header and index in memory, block metas read on demand.
  class Reader {
   public:
    explicit Reader(const std::string& file_path);

    [[nodiscard]] std::uint64_t num_blocks() const noexcept {
      return index_.size();
    }
    [[nodiscard]] const std::string& dataset_path() const noexcept {
      return dataset_path_;
    }
    [[nodiscard]] std::uint64_t raw_bytes() const noexcept { return raw_bytes_; }

    // Deserialize one block's meta (one seek + one read).
    [[nodiscard]] BlockMeta load_block(std::uint64_t block_index);
    [[nodiscard]] dfs::BlockId block_id(std::uint64_t block_index) const;

   private:
    std::ifstream file_;
    std::string dataset_path_;
    std::uint64_t raw_bytes_ = 0;
    std::vector<IndexEntry> index_;
    std::streamoff blobs_begin_ = 0;
  };
};

class ShardedMetaStore {
 public:
  // Writes `num_shards` files "<prefix>.shard<k>"; block i -> shard i % S.
  static void save(const ElasticMapArray& array, const std::string& prefix,
                   std::uint32_t num_shards);

  // Ring-partitioned layout: block i -> ring.shard_of_block(block_id(i)),
  // the placement the sharded metadata plane uses so a store shard lives
  // with the metadata shard that owns its blocks. A shard owning no blocks
  // still gets a (valid, empty) file, so load() never depends on which
  // shards happened to win blocks. Reassemble with load(prefix,
  // ring.num_shards()) — loading is placement-agnostic.
  static void save(const ElasticMapArray& array, const std::string& prefix,
                   const dfs::HashRing& ring);

  // Reassemble the full array from the shard files.
  static ElasticMapArray load(const std::string& prefix, std::uint32_t num_shards);

  [[nodiscard]] static std::string shard_file(const std::string& prefix,
                                              std::uint32_t shard);
};

}  // namespace datanet::elasticmap
