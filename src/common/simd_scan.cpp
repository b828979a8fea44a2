#include "common/simd_scan.hpp"

#include <cstddef>

namespace datanet::common {

ScanKernel active_scan_kernel() noexcept { return ScanKernel::kScalar; }

const char* scan_kernel_name(ScanKernel) noexcept { return "scalar"; }

void scan_key_lines(std::string_view data, std::string_view key, void* ctx,
                    LineSink sink) {
  std::size_t start = 0;
  while (start < data.size()) {
    std::size_t end = data.find('\n', start);
    if (end == std::string_view::npos) end = data.size();
    std::string_view line = data.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t tab = line.find('\t');
    if (tab != std::string_view::npos) {
      const std::string_view rest = line.substr(tab + 1);
      if (rest.size() > key.size() && rest[key.size()] == '\t' &&
          rest.compare(0, key.size(), key) == 0) {
        sink(ctx, line);
      }
    }
    start = end + 1;
  }
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
