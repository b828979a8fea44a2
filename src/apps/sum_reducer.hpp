#pragma once
// The reducer and combiner of the counting jobs (WordCount, the word
// histogram, FilterStats): values are decimal counts, the output their sum.

#include <charconv>
#include <cstdint>
#include <string>

#include "mapred/job.hpp"

namespace datanet::apps {

class SumReducer final : public mapred::Reducer {
 public:
  void reduce(const mapred::Key& key, std::span<const mapred::Value> values,
              mapred::Emitter& out) override {
    std::uint64_t sum = 0;
    for (const auto& v : values) {
      std::uint64_t x = 0;
      std::from_chars(v.data(), v.data() + v.size(), x);
      sum += x;
    }
    out.emit(key, std::to_string(sum));
  }
};

}  // namespace datanet::apps
