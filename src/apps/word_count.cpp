#include "apps/word_count.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "apps/sum_reducer.hpp"
#include "common/string_util.hpp"

namespace datanet::apps {

namespace {

// Transparent, so a word the walker yields as a view is looked up without
// building a string.
struct WordHash : std::hash<std::string_view> {
  using is_transparent = void;
};

// In-mapper combining: a task counts its words in a hash map and emits one
// (word, count) pair per distinct word when its split is exhausted.
class WordCountMapper final : public mapred::Mapper {
 public:
  void map(const workload::RecordView& record, mapred::Emitter&) override {
    common::for_each_word(record.payload, [&](std::string_view word) {
      auto it = counts_.find(word);
      if (it == counts_.end()) it = counts_.emplace(word, 0).first;
      ++it->second;
    });
  }

  void finish(mapred::Emitter& out) override {
    for (const auto& [word, count] : counts_) {
      out.emit(word, std::to_string(count));
    }
    counts_.clear();
  }

 private:
  std::unordered_map<std::string, std::uint64_t, WordHash, std::equal_to<>>
      counts_;
};

}  // namespace

mapred::Job make_word_count_job() {
  mapred::Job job;
  job.config.name = "WordCount";
  job.config.cost.io_s_per_mib = 0.02;
  job.config.cost.cpu_s_per_mib = 0.30;  // tokenization + combining
  job.config.cost.cpu_us_per_record = 1.0;
  job.config.cost.task_overhead_s = 1.0;
  job.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  job.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  return job;
}

}  // namespace datanet::apps
