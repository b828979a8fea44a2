#pragma once
// Allocation-light string helpers for the record codecs and the word walker.

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace datanet::common {

// Split `s` on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

// Invoke `fn(field)` for each `sep`-separated field without materializing a
// vector. `fn` may return void, or bool where false stops iteration early.
template <typename Fn>
void for_each_split(std::string_view s, char sep, Fn&& fn) {
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    std::string_view field = (pos == std::string_view::npos)
                                 ? s.substr(start)
                                 : s.substr(start, pos - start);
    if constexpr (std::is_same_v<decltype(fn(field)), bool>) {
      if (!fn(field)) return;
    } else {
      fn(field);
    }
    if (pos == std::string_view::npos) return;
    start = pos + 1;
  }
}

[[nodiscard]] std::string_view trim(std::string_view s);

// Locale-independent numeric parses; nullopt on any trailing garbage.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s);
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s);
[[nodiscard]] std::optional<double> parse_double(std::string_view s);

namespace detail {
// Lowercased form of a word byte ([A-Za-z0-9']), '\0' for a separator.
constexpr char word_byte(char c) {
  if (c >= 'A' && c <= 'Z') return static_cast<char>(c - 'A' + 'a');
  const bool word =
      (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '\'';
  return word ? c : '\0';
}
}  // namespace detail

// Invoke `fn(word)` for each word of `text` in order: a maximal run of ASCII
// [A-Za-z0-9'], lowercased (isalnum/tolower in the C locale; every other
// byte, >= 0x80 included, separates words). Used by WordCount and the word
// histogram. `word` views `text` itself when the run has no uppercase
// letter, else a lowercased copy in one buffer reused for the whole walk;
// either way it is valid only during the call. Lowercase text never
// allocates.
template <typename Fn>
void for_each_word(std::string_view text, Fn&& fn) {
  const auto byte = [&](std::size_t i) { return detail::word_byte(text[i]); };
  std::string lowered;
  std::size_t i = 0;
  for (;;) {
    while (i < text.size() && byte(i) == '\0') ++i;
    if (i == text.size()) return;
    const std::size_t begin = i;
    bool folded = false;
    for (; i < text.size() && byte(i) != '\0'; ++i) {
      folded |= byte(i) != text[i];
    }
    std::string_view word = text.substr(begin, i - begin);
    if (folded) {
      for (char& c : lowered.assign(word)) c = detail::word_byte(c);
      word = lowered;
    }
    fn(word);
  }
}

}  // namespace datanet::common
