// Seeded input generators for the benchmark workloads.  Every generator
// is a pure function of its arguments: the same seed yields the same
// bytes, so a run can be reproduced from (workload, seed) alone.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// splitmix64 of (seed, stream): independent sub-seeds for the RNG
/// streams one workload needs.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// One node with two independent cores: core A runs HPCCG over L1, L2
/// with next-line prefetch and DDR3 (the node_ddr3 hierarchy); core B
/// runs GUPS behind a two-level TLB, a radix-4 walker with walk cache and
/// huge-page promotion, a bus, L1 and DDR3 (the node_vm path).  Runs to
/// completion (no end time).
struct NodeSize {
  unsigned hpccg_n = 16;      // HPCCG grid edge (n^3 points)
  unsigned iterations = 1;    // HPCCG iterations
  unsigned gups_updates = 0;  // GUPS updates
};
// node_serial takes 0.5-0.8 s per repetition on a 4-vCPU x86 VM;
// node_ranks2 is smaller because two ranks on this model run about ten
// times slower than one (the sub-ns link lookahead forces a barrier every
// few events).
inline constexpr NodeSize kNodeSerial{16, 2, 20000};
inline constexpr NodeSize kNodeRanks2{10, 1, 2500};
[[nodiscard]] std::string node_system_json(std::uint64_t seed,
                                           const NodeSize& size);

/// Moving-hotspot PHOLD on a side x side torus (net.HotspotPhold, 200 ns
/// links), min-cut partitioned with online rebalancing on.
struct HotspotSize {
  unsigned side = 16;
  const char* end_time = "200us";
  const char* drift_period = "25us";
};
inline constexpr HotspotSize kHotspot{16, "200us", "25us"};
/// Checkpoint cadence of hotspot_ranks4 (ps): snapshots at 50, 100 and
/// 150 us of the 200 us run.
inline constexpr std::uint64_t kHotspotCheckpointPeriod = 50'000'000;
[[nodiscard]] std::string hotspot_system_json(std::uint64_t seed,
                                              const HotspotSize& size);

/// Base model of the sweep: one HPCCG core over L1, L2 and DDR3.
[[nodiscard]] std::string sweep_model_json(std::uint64_t seed);

/// Randomly sampled sweep over L1 size, L2 size, L1->L2 link latency and
/// end time of sweep_model_json (referenced as `model_file`), run through
/// the fork/exec executor at concurrency 2.
inline constexpr unsigned kSweepPoints = 128;
inline constexpr unsigned kSweepConcurrency = 2;
[[nodiscard]] std::string sweep_spec_json(std::uint64_t seed,
                                          const std::string& model_file);

}  // namespace perfbench
