// Shared types of sstbench, the benchmark program: options, per-run
// results and the repetition loop bookkeeping.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sstsim;                 // child simulator for the sweep
  std::string work_dir = ".bench_out";  // scratch + span output
  bool corrupt_reference = false;     // self-test hook: break the reference
};

/// What one workload run reports: operations attempted and failed, and
/// metric values by name (units live in main.cpp's metric tables).
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

/// Untimed warm-up before the timed repetitions of a simulation workload
/// (see run_sim_case); the sweep's untimed reference sweep lasts longer.
inline constexpr double kWarmupSeconds = 2.0;

/// Set-up repetitions per timed repetition (see set_up in
/// sim_workloads.cpp and sweep_rep in sweep_workload.cpp).
inline constexpr int kSetupSamples = 15;

/// Median of a sample (0 for an empty one).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Repetition schedule: keep repeating until the time budget is spent,
/// but never fewer than kMinReps repetitions so medians have a base.  In
/// a traced run repetitions alternate untraced/traced, so both halves
/// get at least kMinReps.
class RepLoop {
 public:
  static constexpr int kMinReps = 3;

  RepLoop(double seconds, bool trace)
      : seconds_(seconds), trace_(trace),
        start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool more() const {
    const int min_reps = trace_ ? 2 * kMinReps : kMinReps;
    if (rep_ < min_reps) return true;
    if (trace_ && rep_ % 2 == 1) return true;  // finish the pair
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
               .count() < seconds_;
  }
  /// Whether the current repetition records spans and engine profiling.
  [[nodiscard]] bool traced() const { return trace_ && rep_ % 2 == 1; }
  [[nodiscard]] int rep() const { return rep_; }
  void next() { ++rep_; }

 private:
  double seconds_;
  bool trace_;
  std::chrono::steady_clock::time_point start_;
  int rep_ = 0;
};

/// Writes `text` to `path`; throws on an I/O error.
inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Host memory high-water mark in MB: this process (VmHWM), or
/// (children=true) the largest child process waited for, as getrusage
/// reports it.
[[nodiscard]] double peak_rss_mb(bool children);

WorkloadResult run_node_serial(const Options& opt, Spans& spans);
WorkloadResult run_node_ranks2(const Options& opt, Spans& spans);
WorkloadResult run_hotspot_ranks4(const Options& opt, Spans& spans);
WorkloadResult run_sweep_local(const Options& opt, Spans& spans);

}  // namespace perfbench
