#pragma once
// Sub-dataset selection (the first phase of every experiment in Section V-A:
// "launch map tasks to filter out our target sub-dataset and store them
// locally on the cluster nodes"). Provided both as a MapReduce statistics
// job (per-key byte totals) and as the record predicate used by the DataNet
// facade when materializing node-local filtered data.

#include <cstdint>
#include <string>
#include <string_view>

#include "mapred/engine.hpp"
#include "mapred/job.hpp"

namespace datanet::apps {

// True iff the record belongs to sub-dataset `key`.
[[nodiscard]] inline bool matches_subdataset(const workload::RecordView& record,
                                             std::string_view key) {
  return record.key == key;
}

// MapReduce job: emits (key, encoded_size) for records of `target_key`
// (empty target = all keys); reducer sums to per-sub-dataset byte totals.
// Pure scan — the cheapest cost profile (I/O dominated).
[[nodiscard]] mapred::Job make_filter_stats_job(std::string target_key);

// What the selection scan counted over one block for one target key: the
// record tallies workload::for_each_record would give, and the records of
// the target with their RecordView::encoded_size() total (not the line
// length: leading-zero timestamps and '\r' terminators differ).
struct FilterCounts {
  std::uint64_t records = 0;
  std::uint64_t skipped = 0;
  std::uint64_t matched = 0;
  std::uint64_t matched_bytes = 0;
};

// The FilterStats map task's combined output for a block with `counts`
// (non-empty `target_key`): what make_filter_stats_job(target_key)'s mapper
// and combiner produce over the same bytes, for mapred::InputSplit::
// map_output.
[[nodiscard]] mapred::MapOutput filter_stats_map_output(
    std::string_view target_key, const FilterCounts& counts);

}  // namespace datanet::apps
