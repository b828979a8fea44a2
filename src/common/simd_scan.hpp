#pragma once
// Record-line scanning for the selection hot loop: memchr-driven splitting of
// newline-separated data with the exact key-field test on each line. Per-line
// work is one find('\n') plus a find('\t') and a memcmp, which measured as
// fast as 64-byte SSE2/AVX2 bitmask stripes on this workload's ~80-byte
// lines (EXPERIMENTS.md, hot path), so it is the only kernel.
//
// The file keeps its historical name and the ScanKernel / active_scan_kernel
// / scan_kernel_name surface because the benchmark harness (perfbench/)
// includes this header and stamps the kernel name into every run.

#include <cstdint>
#include <string_view>

namespace datanet::common {

enum class ScanKernel : std::uint8_t { kScalar = 0 };

// Always kScalar: the one memchr kernel.
[[nodiscard]] ScanKernel active_scan_kernel() noexcept;

[[nodiscard]] const char* scan_kernel_name(ScanKernel kernel) noexcept;

// Plain-function sinks keep the loops out of the header; candidate lines
// are rare (sub-dataset selectivity), so the indirect call is off the
// per-byte path.
using LineSink = void (*)(void* ctx, std::string_view line);

// Invoke `sink` for every line of `data` whose key field — the bytes between
// the first and second '\t' — equals `key` exactly. Lines are split on '\n'
// (the final line needs no trailing newline); a line carrying a CRLF
// terminator has exactly one trailing '\r' stripped before matching and
// emission, so Windows-style records never leak '\r' into their last field.
// Lines without two tabs around a key-sized field never match.
void scan_key_lines(std::string_view data, std::string_view key, void* ctx,
                    LineSink sink);

// Line tallies of scan_key_lines_counted: the counts workload::
// for_each_record would return over the same bytes.
struct LineCounts {
  std::uint64_t records = 0;  // lines workload::decode_record accepts
  std::uint64_t skipped = 0;  // non-empty lines it rejects
};

// scan_key_lines that also validates every non-empty line with
// workload::decode_record's rules (two tabs, non-empty key, a timestamp that
// parses whole as a uint64) and adds it to `counts` as a record or a skipped
// line. Only valid lines reach `sink`. The same loop as scan_key_lines, so
// the selection prices its report from the one scan that filters the bytes.
void scan_key_lines_counted(std::string_view data, std::string_view key,
                            void* ctx, LineSink sink, LineCounts& counts);

// Invoke `sink` for every non-empty line of `data` (split on '\n', final
// line included without one). One trailing '\r' per line is stripped before
// the empty test, so "\r\n" blank lines are skipped like "\n" ones. Used by
// workload::for_each_record and the decode-all reference filter.
void scan_lines(std::string_view data, void* ctx, LineSink sink);

}  // namespace datanet::common
