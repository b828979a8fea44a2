#pragma once
// Word Count (Section V-A): counts word occurrences in the payloads of the
// input sub-dataset. The canonical MapReduce benchmark; moderate per-byte
// CPU (tokenize + combine).

#include "mapred/job.hpp"

namespace datanet::apps {

// Mapper emits (word, count) per distinct word of its task; reducers sum.
[[nodiscard]] mapred::Job make_word_count_job();

}  // namespace datanet::apps
