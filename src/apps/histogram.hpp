#pragma once
// Aggregate Word Histogram (Section V-A): the MapReduce aggregate plug-in
// that histograms the words of the input — here the distribution of word
// lengths, plus the total word count.

#include "mapred/job.hpp"

namespace datanet::apps {

// Output keys: "len_NNN" (length zero-padded to three digits, e.g.
// "len_005") -> number of word occurrences of that length, and
// "total_words" -> number of word occurrences overall.
[[nodiscard]] mapred::Job make_word_histogram_job();

}  // namespace datanet::apps
