#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/json.hpp"

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::uint32_t Tracer::open(std::uint32_t name) {
  const auto now = std::chrono::steady_clock::now();
  const std::int32_t parent =
      open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({name, parent, op_, now, now});
  open_.push_back(index);
  return index;
}

void Tracer::close(std::uint32_t span) {
  if (open_.empty() || open_.back() != span) {
    throw std::logic_error("Tracer: spans must close innermost first");
  }
  spans_[span].end = std::chrono::steady_clock::now();
  open_.pop_back();
}

void Tracer::write_json(const std::string& path) const {
  const auto us = [this](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw std::runtime_error("Tracer: cannot write " + path);
  datanet::common::JsonWriter names;
  names.begin_array();
  for (const auto& n : names_) names.value(n);
  names.end_array();
  file << "{\"names\": " << names.str() << ",\n\"spans\": [";
  char line[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    std::snprintf(line, sizeof line, "%s\n[%u, %.3f, %.3f, %d, %llu]",
                  i == 0 ? "" : ",", s.name, us(s.start), us(s.end), s.parent,
                  static_cast<unsigned long long>(s.op));
    file << line;
  }
  file << "]}\n";
  if (!file) throw std::runtime_error("Tracer: write failed for " + path);
}

}  // namespace perfbench
