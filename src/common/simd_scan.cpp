#include "common/simd_scan.hpp"

#include <charconv>
#include <cstddef>

namespace datanet::common {

namespace {

// workload::decode_record's acceptance rules on one '\r'-stripped, non-empty
// line whose first tab sits at `tab`: two tabs, a non-empty key field
// between them, and a timestamp field that parses whole as a uint64 (no
// sign, no overflow; leading zeros are fine).
bool valid_record(std::string_view line, std::size_t tab) {
  if (tab == std::string_view::npos) return false;
  const std::size_t tab2 = line.find('\t', tab + 1);
  if (tab2 == std::string_view::npos || tab2 == tab + 1) return false;
  std::uint64_t ts = 0;
  const auto [ptr, ec] = std::from_chars(line.data(), line.data() + tab, ts);
  return ec == std::errc{} && ptr == line.data() + tab;
}

// The one key scan. kCount additionally validates every non-empty line and
// counts it as a record or a skipped line; invalid lines never reach the
// sink (the sink's own decode would reject them anyway).
template <bool kCount>
void key_scan(std::string_view data, std::string_view key, void* ctx,
              LineSink sink, LineCounts* counts) {
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = data.find('\n', start);
    if (end == std::string_view::npos) end = data.size();
    std::string_view line = data.substr(start, end - start);
    start = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t tab = line.find('\t');
    if constexpr (kCount) {
      if (line.empty()) continue;
      if (!valid_record(line, tab)) {
        ++counts->skipped;
        continue;
      }
      ++counts->records;
    }
    if (tab != std::string_view::npos) {
      const std::string_view rest = line.substr(tab + 1);
      if (rest.size() > key.size() && rest[key.size()] == '\t' &&
          rest.compare(0, key.size(), key) == 0) {
        sink(ctx, line);
      }
    }
  }
}

}  // namespace

ScanKernel active_scan_kernel() noexcept { return ScanKernel::kScalar; }

const char* scan_kernel_name(ScanKernel) noexcept { return "scalar"; }

void scan_key_lines(std::string_view data, std::string_view key, void* ctx,
                    LineSink sink) {
  key_scan<false>(data, key, ctx, sink, nullptr);
}

void scan_key_lines_counted(std::string_view data, std::string_view key,
                            void* ctx, LineSink sink, LineCounts& counts) {
  key_scan<true>(data, key, ctx, sink, &counts);
}

void scan_lines(std::string_view data, void* ctx, LineSink sink) {
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = data.find('\n', start);
    if (end == std::string_view::npos) end = data.size();
    std::string_view line = data.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) sink(ctx, line);
    start = end + 1;
  }
}

}  // namespace datanet::common
