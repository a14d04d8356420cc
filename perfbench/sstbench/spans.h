// In-memory span recorder for the traced benchmark run.  Each span is a
// timed call into one layer's public functions: name, start, end, the
// span that encloses it, and the repetition it belongs to (the request
// identifier shared by all spans of one repetition).  Spans are kept in
// memory and written once, when the benchmark ends.
//
// Every Scope is timed whether or not recording is on: the untraced run
// reads its metrics from the same scopes, it just keeps no spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  Spans() = default;

  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// One open span; closes (and is recorded) on close() or destruction.
  class Scope {
   public:
    Scope(Spans& spans, std::string name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double close();

   private:
    Spans& spans_;
    std::string name_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::chrono::steady_clock::time_point start_;
    double seconds_ = -1.0;
  };

  /// Turns recording on or off for the scopes opened from now on.
  void set_recording(bool on) { record_ = on; }
  /// Repetition number stamped on the spans opened from now on.
  void set_rep(int rep) { rep_ = rep; }

  /// Writes the recorded spans as JSON (see perfbench/README.md for the
  /// format).  Returns false on an I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Record {
    std::uint32_t id;
    std::uint32_t parent;  // 0 = top level
    int rep;
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t since_origin_ns(std::chrono::steady_clock::time_point t) const;

  bool record_ = false;
  int rep_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<std::uint32_t> open_;  // ids of the enclosing open scopes
  std::vector<Record> records_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace perfbench
