#include "apps/filter.hpp"

#include <cstdint>
#include <memory>

#include "apps/sum_reducer.hpp"

namespace datanet::apps {

namespace {

class FilterStatsMapper final : public mapred::Mapper {
 public:
  explicit FilterStatsMapper(std::string target) : target_(std::move(target)) {}

  void map(const workload::RecordView& record, mapred::Emitter& out) override {
    if (!target_.empty() && record.key != target_) {
      ++filtered_out_;
      return;
    }
    ++matched_;
    out.emit(std::string(record.key), std::to_string(record.encoded_size()));
  }

  // Counter totals are flushed once per task, not bumped per record — this
  // mapper runs over the whole raw input on the selection hot path.
  void finish(mapred::Emitter& out) override {
    if (filtered_out_ > 0) out.count("records_filtered_out", filtered_out_);
    if (matched_ > 0) out.count("records_matched", matched_);
  }

 private:
  std::string target_;
  std::uint64_t filtered_out_ = 0;
  std::uint64_t matched_ = 0;
};

}  // namespace

mapred::Job make_filter_stats_job(std::string target_key) {
  mapred::Job job;
  job.config.name = "FilterStats";
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.005;  // pure scan
  job.config.cost.cpu_us_per_record = 0.2;
  job.config.cost.task_overhead_s = 0.5;
  job.mapper_factory = [target_key] {
    return std::make_unique<FilterStatsMapper>(target_key);
  };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  job.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return job;
}

mapred::MapOutput filter_stats_map_output(std::string_view target_key,
                                          const FilterCounts& counts) {
  // FilterStatsMapper::finish's counters, in its order; the SumReducer
  // combiner folds the matched records' sizes into one pair and counts
  // nothing.
  mapred::MapOutput out;
  out.records = counts.records;
  out.skipped = counts.skipped;
  if (counts.records > counts.matched) {
    out.counters.emplace_back("records_filtered_out",
                              counts.records - counts.matched);
  }
  if (counts.matched > 0) {
    out.counters.emplace_back("records_matched", counts.matched);
    out.pairs.emplace_back(std::string(target_key),
                           std::to_string(counts.matched_bytes));
  }
  return out;
}

}  // namespace datanet::apps
