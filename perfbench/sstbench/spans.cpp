#include "spans.h"

#include <fstream>

namespace perfbench {

Spans::Scope::Scope(Spans& spans, std::string name)
    : spans_(spans), name_(std::move(name)) {
  if (spans_.record_) {
    id_ = spans_.next_id_++;
    parent_ = spans_.open_.empty() ? 0 : spans_.open_.back();
    spans_.open_.push_back(id_);
  }
  start_ = std::chrono::steady_clock::now();
}

double Spans::Scope::close() {
  if (seconds_ >= 0.0) return seconds_;
  const auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (id_ != 0) {
    // Scopes nest lexically, so this one is the innermost open span.
    spans_.open_.pop_back();
    spans_.records_.push_back({id_, parent_, spans_.rep_, std::move(name_),
                               spans_.since_origin_ns(start_),
                               spans_.since_origin_ns(end)});
  }
  return seconds_;
}

std::int64_t Spans::since_origin_ns(
    std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

bool Spans::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"clock\": \"steady_clock\", \"unit\": \"ns\", \"spans\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << r.id
        << ", \"parent\": " << r.parent << ", \"rep\": " << r.rep
        << ", \"name\": \"" << r.name << "\", \"start\": " << r.start_ns
        << ", \"end\": " << r.end_ns << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
