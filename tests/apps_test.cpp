// Tests for the four paper workloads (MovingAverage, TopKSearch, WordCount,
// AggregateWordHistogram) and the selection job — each validated against a
// straightforward serial computation.

#include <gtest/gtest.h>

#include <cctype>
#include <charconv>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "apps/filter.hpp"
#include "apps/histogram.hpp"
#include "apps/moving_average.hpp"
#include "apps/topk_search.hpp"
#include "apps/word_count.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "mapred/engine.hpp"
#include "mapred/report_json.hpp"

namespace da = datanet::apps;
namespace dm = datanet::mapred;

namespace {

std::string lines(std::initializer_list<const char*> ls) {
  std::string out;
  for (const char* l : ls) {
    out += l;
    out += '\n';
  }
  return out;
}

dm::JobReport run1(const dm::Job& job, const std::string& data,
                   std::uint32_t nodes = 1) {
  dm::Engine engine({.num_nodes = nodes});
  return engine.run(job, {{.node = 0, .data = data, .charged_bytes = 0}});
}

}  // namespace

// ---- word count ----

TEST(WordCount, CountsMatchSerial) {
  const auto data = lines({
      "1\tm\tthe cat and the dog",
      "2\tm\tThe CAT sat",
  });
  const auto report = run1(da::make_word_count_job(), data);
  EXPECT_EQ(report.output.at("the"), "3");
  EXPECT_EQ(report.output.at("cat"), "2");
  EXPECT_EQ(report.output.at("dog"), "1");
  EXPECT_EQ(report.output.at("sat"), "1");
  EXPECT_EQ(report.output.at("and"), "1");
}

TEST(WordCount, MultiSplitAggregation) {
  const auto b1 = lines({"1\tm\talpha beta"});
  const auto b2 = lines({"2\tm\tbeta gamma", "3\tm\tbeta"});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_word_count_job(),
                                 {{.node = 0, .data = b1, .charged_bytes = 0},
                                  {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("beta"), "3");
  EXPECT_EQ(report.output.at("alpha"), "1");
  EXPECT_EQ(report.output.at("gamma"), "1");
}

TEST(WordCount, EmptyPayloads) {
  const auto report = run1(da::make_word_count_job(), lines({"1\tm\t"}));
  EXPECT_TRUE(report.output.empty());
}

namespace {

// The tokenizer rule written out the naive way: runs of isalnum or '\'',
// lowercased with tolower — the C locale, which the program never changes.
std::map<std::string, std::uint64_t> naive_word_counts(std::string_view text) {
  std::map<std::string, std::uint64_t> counts;
  std::string cur;
  for (const char ch : text) {
    const auto uc = static_cast<unsigned char>(ch);
    if (std::isalnum(uc) || ch == '\'') {
      cur.push_back(static_cast<char>(std::tolower(uc)));
    } else if (!cur.empty()) {
      ++counts[cur];
      cur.clear();
    }
  }
  if (!cur.empty()) ++counts[cur];
  return counts;
}

}  // namespace

TEST(WordCount, MatchesNaiveTokenizerOnMixedText) {
  // Payloads mixing case, digits, apostrophes, punctuation, tabs, CRs and
  // bytes >= 0x80, spread over several splits on two nodes.
  static constexpr std::string_view kPieces[] = {
      "Word", "WORD", "word", "w0rd", "42", "don't", "DON'T", "'", "''",
      "x", "Ünïcode", "caf\xC3\xA9", "\xFF", "\x80Z\x80", ",", ".", "!?",
      "-", " ", " ", "\t", "\r", "a'B'c", "MiXeD123case"};
  datanet::common::Rng rng(2016);
  std::vector<std::string> blocks(5);
  std::map<std::string, std::uint64_t> expected;
  std::map<std::size_t, std::uint64_t> expected_lengths;
  std::uint64_t total_words = 0;
  for (std::size_t r = 0; r < 200; ++r) {
    std::string payload;
    const auto pieces = rng.bounded(30);
    for (std::uint64_t p = 0; p < pieces; ++p) {
      payload += kPieces[rng.bounded(std::size(kPieces))];
      if (rng.bounded(3) == 0) payload += ' ';
    }
    blocks[r % blocks.size()] +=
        std::to_string(r) + "\tm" + std::to_string(r % 4) + "\t" + payload +
        "\n";
    for (const auto& [word, n] : naive_word_counts(payload)) {
      expected[word] += n;
      expected_lengths[word.size()] += n;
      total_words += n;
    }
  }
  std::vector<dm::InputSplit> splits;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    splits.push_back({.node = static_cast<std::uint32_t>(b % 2),
                      .data = blocks[b],
                      .charged_bytes = 0});
  }
  dm::Engine engine({.num_nodes = 2});

  const auto counted = engine.run(da::make_word_count_job(), splits);
  ASSERT_EQ(counted.output.size(), expected.size());
  for (const auto& [word, n] : expected) {
    EXPECT_EQ(counted.output.at(word), std::to_string(n)) << word;
  }

  const auto histogram = engine.run(da::make_word_histogram_job(), splits);
  EXPECT_EQ(histogram.output.at("total_words"), std::to_string(total_words));
  for (const auto& [len, n] : expected_lengths) {
    char key[24];
    std::snprintf(key, sizeof(key), "len_%03zu", len);
    EXPECT_EQ(histogram.output.at(key), std::to_string(n)) << key;
  }
  EXPECT_EQ(histogram.output.size(), expected_lengths.size() + 1);
}

// ---- pinned reports ----

namespace {

// A small fixed dataset: three splits on two nodes, mixed-case text.
struct GoldenInput {
  std::vector<std::string> blocks = {
      lines({"100\tmovie_1\tThe film was GOOD, the cast was good.",
             "101\tmovie_2\tNot my kind of film: 2 stars, can't recommend.",
             "102\tmovie_1\tGood good GOOD!"}),
      lines({"103\tmovie_3\tA film about films'; director's cut.",
             "104\tmovie_1\tthe end"}),
      lines({"105\tmovie_2\tWas it good? It was 10/10 for the cast.",
             "106\tmovie_3\t\tcaf\xC3\xA9 \xE2\x80\x94 FILM\r"})};
  std::vector<dm::InputSplit> splits() const {
    return {{.node = 0, .data = blocks[0], .charged_bytes = 0},
            {.node = 1, .data = blocks[1], .charged_bytes = 0},
            {.node = 0, .data = blocks[2], .charged_bytes = 0}};
  }
};

// Pinned whole serialized reports, output included: how the engine groups
// pairs and how WordCount combines may not change a byte of them.

// WordCount over GoldenInput.
constexpr std::string_view kWordCountJson =
    R"json({"timing":{"map_phase_seconds":1.000044809,"first_map_finish_seconds":1.000023057,"shuffle_phase_seconds":4.540307617e-05,"reduce_phase_seconds":1.182556152e-05,"total_seconds":1.000080286,"node_map_seconds":[1.000044809,1.000023057])json"
    R"json(,"shuffle_task_seconds":[2.70925293e-05,3.968103027e-05,3.739221191e-05,4.540307617e-05,2.365930176e-05,2.480371094e-05,2.785546875e-05,2.518518066e-05]})json"
    R"json(,"aggregates":{"input_records":7,"input_bytes":287,"map_output_pairs":30,"shuffle_bytes":202,"skipped_lines":0,"output_keys":23})json"
    R"json(,"faults":{"retries":0,"lost_blocks":0,"under_replicated":0,"degraded":false})json"
    R"json(,"attempts":{"attempts":0,"timeouts":0,"transient_retries":0,"redispatches":0,"speculative_launched":0,"speculative_wins":0,"timing_backups":0,"degraded_tasks":0})json"
    R"json(,"recovery":{"healed_blocks":0,"pending_repairs":0,"mttr_ticks":0,"monitor_ticks":0,"scrubbed_replicas":0,"unrepairable":0})json"
    R"json(,"counters":{})json"
    R"json(,"output":{"10":"2","2":"1","a":"1","about":"1","caf":"1","can't":"1","cast":"2","cut":"1","director's":"1","end":"1","film":"4","films'":"1","for":"1","good":"6","it":"2","kind":"1","my":"1","not":"1","of":"1","recommend":"1","stars":"1","the":"4","was":"4"}})json";

// FilterStats over GoldenInput, every key.
constexpr std::string_view kFilterStatsJson =
    R"json({"timing":{"map_phase_seconds":0.5000038663,"first_map_finish_seconds":0.5000020451,"shuffle_phase_seconds":1.021358032e-05,"reduce_phase_seconds":4.196166992e-06,"total_seconds":0.5000164548,"node_map_seconds":[0.5000038663,0.5000020451])json"
    R"json(,"shuffle_task_seconds":[1.821246338e-06,1.021358032e-05,1.821246338e-06,1.821246338e-06,1.021358032e-05,1.021358032e-05,1.821246338e-06,1.821246338e-06]})json"
    R"json(,"aggregates":{"input_records":7,"input_bytes":287,"map_output_pairs":6,"shuffle_bytes":66,"skipped_lines":0,"output_keys":3})json"
    R"json(,"faults":{"retries":0,"lost_blocks":0,"under_replicated":0,"degraded":false})json"
    R"json(,"attempts":{"attempts":0,"timeouts":0,"transient_retries":0,"redispatches":0,"speculative_launched":0,"speculative_wins":0,"timing_backups":0,"degraded_tasks":0})json"
    R"json(,"recovery":{"healed_blocks":0,"pending_repairs":0,"mttr_ticks":0,"monitor_ticks":0,"scrubbed_replicas":0,"unrepairable":0})json"
    R"json(,"counters":{"records_matched":7})json"
    R"json(,"output":{"movie_1":"98","movie_2":"111","movie_3":"77"}})json";

// FilterStats over GoldenInput, key movie_1.
constexpr std::string_view kFilterStatsMovie1Json =
    R"json({"timing":{"map_phase_seconds":0.5000038663,"first_map_finish_seconds":0.5000020451,"shuffle_phase_seconds":1.021358032e-05,"reduce_phase_seconds":4.196166992e-06,"total_seconds":0.5000164548,"node_map_seconds":[0.5000038663,0.5000020451])json"
    R"json(,"shuffle_task_seconds":[1.821246338e-06,1.821246338e-06,1.821246338e-06,1.821246338e-06,1.821246338e-06,1.021358032e-05,1.821246338e-06,1.821246338e-06]})json"
    R"json(,"aggregates":{"input_records":7,"input_bytes":287,"map_output_pairs":2,"shuffle_bytes":22,"skipped_lines":0,"output_keys":1})json"
    R"json(,"faults":{"retries":0,"lost_blocks":0,"under_replicated":0,"degraded":false})json"
    R"json(,"attempts":{"attempts":0,"timeouts":0,"transient_retries":0,"redispatches":0,"speculative_launched":0,"speculative_wins":0,"timing_backups":0,"degraded_tasks":0})json"
    R"json(,"recovery":{"healed_blocks":0,"pending_repairs":0,"mttr_ticks":0,"monitor_ticks":0,"scrubbed_replicas":0,"unrepairable":0})json"
    R"json(,"counters":{"records_filtered_out":4,"records_matched":3})json"
    R"json(,"output":{"movie_1":"98"}})json";

}  // namespace

TEST(WordCount, ReportJsonMatchesPinnedGolden) {
  const GoldenInput in;
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_word_count_job(), in.splits());
  EXPECT_EQ(dm::report_to_json(report, true), kWordCountJson);
}

TEST(Filter, ReportJsonMatchesPinnedGolden) {
  const GoldenInput in;
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_filter_stats_job(""), in.splits());
  EXPECT_EQ(dm::report_to_json(report, true), kFilterStatsJson);
  const auto targeted =
      engine.run(da::make_filter_stats_job("movie_1"), in.splits());
  EXPECT_EQ(dm::report_to_json(targeted, true), kFilterStatsMovie1Json);
}

// ---- moving average ----

TEST(MovingAverage, WindowAverages) {
  // Window = 100 s. ts 0-99 -> window 0, ts 100-199 -> window 1.
  const auto data = lines({
      "10\tm\trating=4 text",
      "20\tm\trating=6 text",
      "150\tm\trating=9 text",
  });
  const auto report = run1(da::make_moving_average_job(100), data);
  EXPECT_EQ(report.output.at("000000000000"), "5.0000");
  EXPECT_EQ(report.output.at("000000000001"), "9.0000");
}

TEST(MovingAverage, IgnoresRecordsWithoutRating) {
  const auto data = lines({
      "10\tm\tno rating here",
      "20\tm\trating=8 ok",
  });
  const auto report = run1(da::make_moving_average_job(100), data);
  EXPECT_EQ(report.output.at("000000000000"), "8.0000");
  EXPECT_EQ(report.output.size(), 1u);
}

TEST(MovingAverage, PartialsCombineAcrossSplits) {
  const auto b1 = lines({"10\tm\trating=2 a"});
  const auto b2 = lines({"20\tm\trating=4 b", "30\tm\trating=6 c"});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_moving_average_job(1000),
                                 {{.node = 0, .data = b1, .charged_bytes = 0},
                                  {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("000000000000"), "4.0000");
}

TEST(MovingAverage, RejectsZeroWindow) {
  EXPECT_THROW(da::make_moving_average_job(0), std::invalid_argument);
}

// ---- top-k search ----

TEST(TopK, BigramCosineProperties) {
  EXPECT_NEAR(da::bigram_cosine("hello world", "hello world"), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(da::bigram_cosine("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(da::bigram_cosine("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(da::bigram_cosine("a", "a"), 0.0);  // no bigram in 1 char
  const double sim = da::bigram_cosine("the quick fox", "the quick dog");
  EXPECT_GT(sim, 0.5);
  EXPECT_LT(sim, 1.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(da::bigram_cosine("abcd", "bcde"),
                   da::bigram_cosine("bcde", "abcd"));
}

TEST(TopK, FindsExactMatchFirst) {
  const auto data = lines({
      "1\tm\tcompletely different text here",
      "2\tm\tthe exact query string",
      "3\tm\tanother unrelated review",
  });
  const auto report =
      run1(da::make_topk_search_job("the exact query string", 2), data);
  ASSERT_TRUE(report.output.contains("topk_00"));
  EXPECT_NE(report.output.at("topk_00").find("the exact query string"),
            std::string::npos);
  EXPECT_EQ(report.output.at("topk_00").substr(0, 8), "1.000000");
}

TEST(TopK, ReturnsAtMostK) {
  const auto data = lines({
      "1\tm\taaa bbb", "2\tm\taaa ccc", "3\tm\taaa ddd", "4\tm\taaa eee",
  });
  const auto report = run1(da::make_topk_search_job("aaa", 2), data);
  EXPECT_TRUE(report.output.contains("topk_00"));
  EXPECT_TRUE(report.output.contains("topk_01"));
  EXPECT_FALSE(report.output.contains("topk_02"));
}

TEST(TopK, GlobalMergeAcrossSplits) {
  // The best match lives in split 2; it must win the global merge.
  const auto b1 = lines({"1\tm\tzzz yyy xxx"});
  const auto b2 = lines({"2\tm\tsearch target text"});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_topk_search_job("search target text", 1),
                                 {{.node = 0, .data = b1, .charged_bytes = 0},
                                  {.node = 1, .data = b2, .charged_bytes = 0}});
  ASSERT_TRUE(report.output.contains("topk_00"));
  EXPECT_NE(report.output.at("topk_00").find("search target"), std::string::npos);
}

TEST(TopK, ScoresDescending) {
  const auto data = lines({
      "1\tm\tsearch target text",
      "2\tm\tsearch target other",
      "3\tm\tnothing alike qq",
  });
  const auto report = run1(da::make_topk_search_job("search target text", 3), data);
  double prev = 2.0;
  for (const auto& [k, v] : report.output) {
    double score = 0.0;
    std::from_chars(v.data(), v.data() + v.find('\t'), score);
    EXPECT_LE(score, prev);
    prev = score;
  }
}

TEST(TopK, RejectsBadArgs) {
  EXPECT_THROW(da::make_topk_search_job("q", 0), std::invalid_argument);
  EXPECT_THROW(da::make_topk_search_job("", 3), std::invalid_argument);
}

TEST(TopK, IsTheMostCpuIntensiveJob) {
  // The Fig. 5a ordering rests on this cost-model ordering.
  const auto topk = da::make_topk_search_job("q", 1);
  const auto wc = da::make_word_count_job();
  const auto ma = da::make_moving_average_job(100);
  EXPECT_GT(topk.config.cost.cpu_s_per_mib, wc.config.cost.cpu_s_per_mib);
  EXPECT_GT(wc.config.cost.cpu_s_per_mib, ma.config.cost.cpu_s_per_mib);
}

// ---- histogram ----

TEST(Histogram, LengthBuckets) {
  const auto data = lines({
      "1\tm\tab abc ab",
      "2\tm\tabcd ab",
  });
  const auto report = run1(da::make_word_histogram_job(), data);
  EXPECT_EQ(report.output.at("len_002"), "3");
  EXPECT_EQ(report.output.at("len_003"), "1");
  EXPECT_EQ(report.output.at("len_004"), "1");
  EXPECT_EQ(report.output.at("total_words"), "5");
}

TEST(Histogram, AggregatesAcrossSplits) {
  const auto b1 = lines({"1\tm\taa bb"});
  const auto b2 = lines({"2\tm\tcc"});
  dm::Engine engine({.num_nodes = 2});
  const auto report = engine.run(da::make_word_histogram_job(),
                                 {{.node = 0, .data = b1, .charged_bytes = 0},
                                  {.node = 1, .data = b2, .charged_bytes = 0}});
  EXPECT_EQ(report.output.at("len_002"), "3");
  EXPECT_EQ(report.output.at("total_words"), "3");
}

// ---- filter ----

TEST(Filter, MatchPredicate) {
  const auto rv = datanet::workload::decode_record("1\tmovie_7\tx");
  ASSERT_TRUE(rv);
  EXPECT_TRUE(da::matches_subdataset(*rv, "movie_7"));
  EXPECT_FALSE(da::matches_subdataset(*rv, "movie_8"));
}

TEST(Filter, StatsJobSumsBytesPerKey) {
  const auto l1 = std::string("1\ta\txx");
  const auto l2 = std::string("2\tb\tyyy");
  const auto l3 = std::string("3\ta\tz");
  const auto data = l1 + "\n" + l2 + "\n" + l3 + "\n";
  const auto report = run1(da::make_filter_stats_job(""), data);
  EXPECT_EQ(report.output.at("a"), std::to_string(l1.size() + l3.size() + 2));
  EXPECT_EQ(report.output.at("b"), std::to_string(l2.size() + 1));
}

TEST(Filter, TargetedStatsOnlyOneKey) {
  const auto data = lines({"1\ta\txx", "2\tb\tyy", "3\ta\tzz"});
  const auto report = run1(da::make_filter_stats_job("a"), data);
  EXPECT_TRUE(report.output.contains("a"));
  EXPECT_FALSE(report.output.contains("b"));
}

TEST(Filter, IsIoBoundCostProfile) {
  const auto f = da::make_filter_stats_job("x");
  EXPECT_LT(f.config.cost.cpu_s_per_mib, f.config.cost.io_s_per_mib);
}
