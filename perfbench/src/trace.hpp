#pragma once
// In-memory span recorder for the traced benchmark run. A span is a named
// interval with the span that was open when it started as its parent and
// the id of the operation (job, query, batch) it belongs to. Spans stay in
// memory and are written out once, when the run ends; benchlib.py derives
// each layer's self time from them (a span's length minus what its children
// cover).
//
// Untraced runs pass a null Tracer*; Span then does nothing.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  // Stable small id for a span name; intern once, outside hot loops.
  [[nodiscard]] std::uint32_t intern(std::string_view name);

  // Open a span under the innermost open one; returns its index.
  std::uint32_t open(std::uint32_t name);
  // Close the span `open` returned. Spans close innermost first.
  void close(std::uint32_t span);

  // Operation id stamped on spans opened from now on.
  void set_operation(std::uint64_t op) noexcept { op_ = op; }

  // Write {"names": [...], "spans": [[name, start_us, end_us, parent, op],
  // ...]} to `path`; parent is -1 for roots.
  void write_json(const std::string& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  struct Record {
    std::uint32_t name;
    std::int32_t parent;
    std::uint64_t op;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Record> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t op_ = 0;
};

// Tracer::intern that tolerates a null tracer (untraced runs).
[[nodiscard]] inline std::uint32_t intern(Tracer* tracer,
                                          std::string_view name) {
  return tracer != nullptr ? tracer->intern(name) : 0;
}

// RAII span; a no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, std::uint32_t name)
      : tracer_(tracer), span_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(span_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t span_;
};

}  // namespace perfbench
