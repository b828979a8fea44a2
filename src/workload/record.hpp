#pragma once
// The log-record model. Every dataset in this repository is a chronological
// stream of records `timestamp \t sub-dataset-key \t payload` — exactly the
// "lists of records, each consisting of several fields such as source/user
// id, log time, ..." shape the paper describes (Section II-A). A sub-dataset
// S(e) is the set of records whose key equals e (Eq. 1).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/simd_scan.hpp"

namespace datanet::workload {

// Numeric id of a sub-dataset: stable 64-bit hash of its key. ElasticMap,
// Bloom filters and schedulers all operate on ids, never on raw keys.
using SubDatasetId = std::uint64_t;

[[nodiscard]] inline SubDatasetId subdataset_id(std::string_view key) noexcept {
  return common::hash_bytes(key, /*seed=*/0x5d57ULL);
}

struct Record {
  std::uint64_t timestamp = 0;  // seconds since dataset epoch
  std::string key;              // sub-dataset key (movie name, event type, ...)
  std::string payload;          // free text / fields
};

// Zero-copy view over one encoded line.
struct RecordView {
  std::uint64_t timestamp = 0;
  std::string_view key;
  std::string_view payload;

  [[nodiscard]] SubDatasetId id() const noexcept { return subdataset_id(key); }
  // On-disk footprint of this record including the trailing newline; this is
  // the |b ∩ s| contribution used throughout DataNet.
  [[nodiscard]] std::uint64_t encoded_size() const noexcept;
};

[[nodiscard]] std::string encode_record(const Record& r);
[[nodiscard]] std::optional<RecordView> decode_record(std::string_view line);

// Invoke fn(RecordView) for each well-formed line in a block's bytes;
// malformed lines are counted and skipped. Returns number of skipped lines.
// Line splitting rides common::scan_lines (empty lines never reach the
// decoder, exactly as the old find('\n') loop skipped them).
template <typename Fn>
std::uint64_t for_each_record(std::string_view block_bytes, Fn&& fn) {
  struct Ctx {
    Fn* fn;
    std::uint64_t skipped;
  } ctx{&fn, 0};
  common::scan_lines(block_bytes, &ctx, [](void* p, std::string_view line) {
    auto& c = *static_cast<Ctx*>(p);
    if (auto rv = decode_record(line)) {
      (*c.fn)(*rv);
    } else {
      ++c.skipped;
    }
  });
  return ctx.skipped;
}

}  // namespace datanet::workload
