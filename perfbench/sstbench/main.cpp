// sstbench: the benchmark program.  Runs one workload for a time budget,
// checks its outputs, and prints every metric by name with its unit; the
// last stdout line is one JSON object
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  See perfbench/README.md.
//
//   sstbench --workload W --seed N --seconds S --trace 0|1
//            [--sstsim PATH] [--work-dir DIR] [--emit DIR]
//            [--corrupt-reference]
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "generate.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "vm/vm_lib.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json, in the same units
// (the self-tests compare the two).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"events_per_s", "1/s"},
    {"points_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Metrics of a layer a workload does not exercise read 0.
constexpr MetricDef kPerLayer[] = {
    {"sdl.parse_s", "s"},
    {"sdl.validate_s", "s"},
    {"sdl.build_s", "s"},
    {"core.events", "count"},
    {"core.ref_events", "count"},
    {"core.clock_ticks", "count"},
    {"core.ns_per_event", "ns"},
    {"core.tick_recycle_ratio", "ratio"},
    {"core.vortex_depth_mean", "count"},
    {"core.sync_windows", "count"},
    {"core.events_per_window", "count"},
    {"core.lookahead_ps", "ps"},
    {"core.cut_links", "count"},
    {"core.barrier_wait_s", "s"},
    {"core.barrier_wait_share", "ratio"},
    {"core.cross_rank_events", "count"},
    {"core.cross_rank_frac", "ratio"},
    {"core.exchange_flushes", "count"},
    {"core.imbalance_mean", "ratio"},
    {"core.rebalances", "count"},
    {"core.components_migrated", "count"},
    {"ckpt.checkpoints", "count"},
    {"ckpt.write_s", "s"},
    {"ckpt.snapshot_bytes", "B"},
    {"ckpt.restore_s", "s"},
    {"proc.instructions", "count"},
    {"proc.ipc", "ratio"},
    {"proc.events_per_kinstr", "count"},
    {"proc.sim_kips", "kinstr/s"},
    {"mem.l1_hit_ratio", "ratio"},
    {"mem.l2_hit_ratio", "ratio"},
    {"mem.dram_row_hit_ratio", "ratio"},
    {"vm.tlb_l1_hit_ratio", "ratio"},
    {"vm.walk_cache_hit_ratio", "ratio"},
    {"vm.pte_reads", "count"},
    {"net.tokens_received", "count"},
    {"obs.trace_overhead", "ratio"},
    {"dse.spec_s", "s"},
    {"dse.expand_s", "s"},
    {"dse.ledger_open_s", "s"},
    {"dse.run_points_s", "s"},
    {"dse.child_run_s", "s"},
    {"dse.dispatch_ms_per_point", "ms"},
    {"dse.aggregate_s", "s"},
};

struct Workload {
  const char* name;
  WorkloadResult (*run)(const Options&, Spans&);
};

constexpr Workload kWorkloads[] = {
    {"node_serial", run_node_serial},
    {"node_ranks2", run_node_ranks2},
    {"hotspot_ranks4", run_hotspot_ranks4},
    {"sweep_local", run_sweep_local},
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints one line per metric, then the result object.  Returns false
/// when a workload produced a metric the tables do not define.
template <std::size_t N>
bool print_result(const WorkloadResult& res,
                  const std::map<std::string, double>& values,
                  const MetricDef (&defs)[N]) {
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const auto& d : defs) known = known || name == d.name;
    if (!known) {
      std::cerr << "sstbench: workload reported undefined metric " << name
                << "\n";
      return false;
    }
  }
  std::string json = "{\"correct\": ";
  json += res.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted) +
          ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::cout << d.name << " " << format_number(v) << " " << d.unit << "\n";
    json += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + format_number(v) + ", \"unit\": \"" +
            d.unit + "\"}";
    first = false;
  }
  std::cout << "failed_frac " << format_number(
                   res.attempted > 0 ? static_cast<double>(res.failed) /
                                           static_cast<double>(res.attempted)
                                     : 1.0)
            << " (" << res.failed << " of " << res.attempted << ")\n";
  std::cout << json << "}}" << std::endl;
  return true;
}

int usage() {
  std::cerr << "usage: sstbench --workload "
               "<node_serial|node_ranks2|hotspot_ranks4|sweep_local> "
               "--seed N --seconds S --trace 0|1 [--sstsim PATH] "
               "[--work-dir DIR] [--emit DIR] [--corrupt-reference]\n";
  return 2;
}

/// Writes the workload's generated inputs into `dir` (for inspection and
/// the determinism self-test) without running anything.
void emit_inputs(const Options& opt, const std::string& dir) {
  fs::create_directories(dir);
  const std::string& w = opt.workload;
  if (w == "node_serial") {
    write_file(dir + "/system.json", node_system_json(opt.seed, kNodeSerial));
  } else if (w == "node_ranks2") {
    write_file(dir + "/system.json", node_system_json(opt.seed, kNodeRanks2));
  } else if (w == "hotspot_ranks4") {
    write_file(dir + "/system.json", hotspot_system_json(opt.seed, kHotspot));
  } else {
    write_file(dir + "/model.json", sweep_model_json(opt.seed));
    write_file(dir + "/sweep.json", sweep_spec_json(opt.seed, "model.json"));
  }
}

}  // namespace

double peak_rss_mb(bool children) {
  if (children) {
    struct rusage ru {};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  }
  // Not getrusage(RUSAGE_SELF): its high-water mark survives exec, so it
  // would report the launching process's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string emit_dir;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    try {
      if (arg == "--corrupt-reference") {
        opt.corrupt_reference = true;
        continue;
      }
      if (value == nullptr) return usage();
      ++i;
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
          return usage();
        }
        opt.trace = value[0] == '1';
        have_trace = true;
      } else if (arg == "--sstsim") {
        opt.sstsim = value;
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--emit") {
        emit_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      std::cerr << "sstbench: bad value for " << arg << "\n";
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage();
  if (!emit_dir.empty()) {
    emit_inputs(opt, emit_dir);
    return 0;
  }
  if (!have_trace || opt.seconds <= 0) return usage();

  sst::mem::register_library();
  sst::proc::register_library();
  sst::vm::register_library();
  sst::net::register_library();

  Spans spans;
  WorkloadResult res;
  try {
    fs::create_directories(opt.work_dir);
    res = workload->run(opt, spans);
  } catch (const std::exception& e) {
    std::cerr << "sstbench: " << workload->name << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (opt.trace) {
    const std::string path = opt.work_dir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (!spans.write(path)) {
      std::cerr << "sstbench: cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "sstbench: spans written to " << path << "\n";
  }
  const bool printed = opt.trace ? print_result(res, res.per_layer, kPerLayer)
                                 : print_result(res, res.end_to_end, kEndToEnd);
  if (!printed) return 1;
  return res.failed == 0 && res.attempted > 0 ? 0 : 1;
}
