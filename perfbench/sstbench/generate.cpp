#include "generate.h"

#include <sstream>

namespace perfbench {

namespace {

std::string link(const std::string& from, const std::string& from_port,
                 const std::string& to, const std::string& to_port,
                 const std::string& latency) {
  return R"({"from": ")" + from + R"(", "from_port": ")" + from_port +
         R"(", "to": ")" + to + R"(", "to_port": ")" + to_port +
         R"(", "latency": ")" + latency + R"("})";
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string node_system_json(std::uint64_t seed, const NodeSize& size) {
  // Seeds stay below 2^53: the SDL stores numbers as doubles.
  const std::uint64_t gups_seed = mix_seed(seed, 1) >> 11;
  const std::uint64_t walker_seed = mix_seed(seed, 2) >> 11;
  std::ostringstream os;
  os << "{\n"
     << R"(  "config": {"seed": )" << seed << "},\n"
     << R"(  "vm": {"enable": true,)" << "\n"
     << R"(    "tlb": {"levels": 2, "l1_sets": 16, "l1_ways": 4, )"
     << R"("l2_sets": 128, "l2_ways": 8, "page_sizes": "4KiB,2MiB"},)"
     << "\n"
     << R"(    "walker": {"walk_depth": 4, "walk_cache_entries": 16, )"
     << R"("page_sizes": "4KiB,2MiB", "huge_pages": "promote", )"
     << R"("promote_threshold": 48, "seed": )" << walker_seed << "}},\n"
     << R"(  "components": [)" << "\n"
     << R"(    {"name": "cpuA", "type": "proc.Core", "params": {"clock": )"
     << R"("2GHz", "issue_width": 4, "max_loads": 48, "workload": "hpccg", )"
     << R"("nx": )" << size.hpccg_n << R"(, "ny": )" << size.hpccg_n
     << R"(, "nz": )" << size.hpccg_n << R"(, "iterations": )"
     << size.iterations << "}},\n"
     << R"(    {"name": "l1A", "type": "mem.Cache", "params": {"size": )"
     << R"("32KiB", "assoc": 4, "hit_latency": "1ns", "mshrs": 16}},)"
     << "\n"
     << R"(    {"name": "l2A", "type": "mem.Cache", "params": {"size": )"
     << R"("512KiB", "assoc": 8, "hit_latency": "4ns", "mshrs": 32, )"
     << R"("prefetch": "nextline"}},)" << "\n"
     << R"(    {"name": "mcA", "type": "mem.MemoryController", "params": )"
     << R"({"backend": "dram", "preset": "DDR3"}},)" << "\n"
     << R"(    {"name": "cpuB", "type": "proc.Core", "params": {"clock": )"
     << R"("2GHz", "issue_width": 4, "max_loads": 16, "workload": "gups", )"
     << R"("updates": )" << size.gups_updates
     << R"(, "table": "16MiB", "seed": )" << gups_seed << "}},\n"
     << R"(    {"name": "tlbB", "type": "vm.Tlb"},)" << "\n"
     << R"(    {"name": "ptwB", "type": "vm.PageTableWalker"},)" << "\n"
     << R"(    {"name": "busB", "type": "mem.Bus", "params": )"
     << R"({"num_ports": 2}},)" << "\n"
     << R"(    {"name": "l1B", "type": "mem.Cache", "params": {"size": )"
     << R"("32KiB", "assoc": 4, "hit_latency": "1ns", "mshrs": 16}},)"
     << "\n"
     << R"(    {"name": "mcB", "type": "mem.MemoryController", "params": )"
     << R"({"backend": "dram", "preset": "DDR3"}})" << "\n"
     << "  ],\n"
     << R"(  "links": [)" << "\n"
     << "    " << link("cpuA", "mem", "l1A", "cpu", "500ps") << ",\n"
     << "    " << link("l1A", "mem", "l2A", "cpu", "1ns") << ",\n"
     << "    " << link("l2A", "mem", "mcA", "cpu", "2ns") << ",\n"
     << "    " << link("cpuB", "mem", "tlbB", "cpu", "500ps") << ",\n"
     << "    " << link("tlbB", "mem", "busB", "up0", "500ps") << ",\n"
     << "    " << link("ptwB", "mem", "busB", "up1", "500ps") << ",\n"
     << "    " << link("tlbB", "ptw", "ptwB", "tlb0", "500ps") << ",\n"
     << "    " << link("ptwB", "inval0", "tlbB", "inval", "500ps") << ",\n"
     << "    " << link("busB", "down", "l1B", "cpu", "1ns") << ",\n"
     << "    " << link("l1B", "mem", "mcB", "cpu", "2ns") << "\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

std::string hotspot_system_json(std::uint64_t seed, const HotspotSize& size) {
  const unsigned n = size.side;
  auto node = [](unsigned x, unsigned y) {
    std::string name = "h";
    name += std::to_string(x);
    name += '_';
    name += std::to_string(y);
    return name;
  };
  std::ostringstream os;
  os << "{\n"
     << R"(  "config": {"seed": )" << seed << R"(, "end_time": ")"
     << size.end_time << R"(", "partition": "mincut", )"
     << R"("rebalance_mode": "on", "rebalance_threshold": 1.5, )"
     << R"("rebalance_period": 8, "rebalance_max_moves": 8},)" << "\n"
     << R"(  "components": [)" << "\n";
  for (unsigned y = 0; y < n; ++y) {
    for (unsigned x = 0; x < n; ++x) {
      os << R"(    {"name": ")" << node(x, y)
         << R"(", "type": "net.HotspotPhold", "params": {"x": )" << x
         << R"(, "y": )" << y << R"(, "size_x": )" << n << R"(, "size_y": )"
         << n << R"(, "service_hops": 12, "hot_span": 1, "bias_pct": 85, )"
         << R"("drift_period": ")" << size.drift_period
         << R"(", "initial_tokens": 4}})"
         << (x + 1 == n && y + 1 == n ? "\n" : ",\n");
    }
  }
  os << "  ],\n" << R"(  "links": [)" << "\n";
  for (unsigned y = 0; y < n; ++y) {
    for (unsigned x = 0; x < n; ++x) {
      os << "    "
         << link(node(x, y), "port0", node((x + 1) % n, y), "port1", "200ns")
         << ",\n    "
         << link(node(x, y), "port2", node(x, (y + 1) % n), "port3", "200ns")
         << (x + 1 == n && y + 1 == n ? "\n" : ",\n");
    }
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string sweep_model_json(std::uint64_t seed) {
  std::ostringstream os;
  os << "{\n"
     << R"(  "config": {"seed": )" << seed << R"(, "end_time": "20us"},)"
     << "\n"
     << R"(  "components": [)" << "\n"
     << R"(    {"name": "cpu", "type": "proc.Core", "params": {"clock": )"
     << R"("2GHz", "issue_width": 4, "max_loads": 48, "workload": "hpccg", )"
     << R"("nx": 16, "ny": 16, "nz": 16, "iterations": 1}},)" << "\n"
     << R"(    {"name": "l1", "type": "mem.Cache", "params": {"size": )"
     << R"("32KiB", "assoc": 4, "hit_latency": "1ns", "mshrs": 16}},)"
     << "\n"
     << R"(    {"name": "l2", "type": "mem.Cache", "params": {"size": )"
     << R"("512KiB", "assoc": 8, "hit_latency": "4ns", "mshrs": 32, )"
     << R"("prefetch": "nextline"}},)" << "\n"
     << R"(    {"name": "mc", "type": "mem.MemoryController", "params": )"
     << R"({"backend": "dram", "preset": "DDR3"}})" << "\n"
     << "  ],\n"
     << R"(  "links": [)" << "\n"
     << "    " << link("cpu", "mem", "l1", "cpu", "500ps") << ",\n"
     << "    " << link("l1", "mem", "l2", "cpu", "1ns") << ",\n"
     << "    " << link("l2", "mem", "mc", "cpu", "2ns") << "\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

std::string sweep_spec_json(std::uint64_t seed, const std::string& model_file) {
  // 4 x 3 x 3 x 4 = 144 combinations, 128 drawn: the sample covers most
  // of the space, so total simulated work barely depends on the seed.
  std::ostringstream os;
  os << "{\n"
     << R"(  "name": "sweep_local",)" << "\n"
     << R"(  "model": ")" << model_file << R"(",)" << "\n"
     << R"(  "axes": [)" << "\n"
     << R"(    {"path": "/components/l1/params/size", )"
     << R"("values": ["8KiB", "16KiB", "32KiB", "64KiB"]},)" << "\n"
     << R"(    {"path": "/components/l2/params/size", )"
     << R"("values": ["256KiB", "512KiB", "1MiB"]},)" << "\n"
     << R"(    {"path": "/links/1/latency", "values": ["1ns", "2ns", "4ns"]},)"
     << "\n"
     << R"(    {"path": "/config/end_time", )"
     << R"("values": ["10us", "15us", "20us", "25us"]})" << "\n"
     << "  ],\n"
     << R"(  "sample": {"mode": "random", "count": )" << kSweepPoints
     << R"(, "seed": )" << (mix_seed(seed, 3) >> 11) << "},\n"
     << R"(  "objectives": [)" << "\n"
     << R"(    {"component": "cpu", "statistic": "instructions", )"
     << R"("goal": "max"},)" << "\n"
     << R"(    {"component": "l1", "statistic": "misses", "goal": "min"})"
     << "\n"
     << "  ],\n"
     << R"(  "run": {"concurrency": )" << kSweepConcurrency
     << R"(, "timeout_seconds": 60, "retries": 0})" << "\n"
     << "}\n";
  return os.str();
}

}  // namespace perfbench
