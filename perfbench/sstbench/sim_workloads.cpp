// The three simulation workloads: node_serial, node_ranks2 and
// hotspot_ranks4.  Each repetition times the public entry points of the
// layers a user's run goes through:
//
//   sdl.parse     sdl::ConfigGraph::from_json_text
//   sdl.validate  ConfigGraph::validate
//   sdl.build     ConfigGraph::build + Simulation::initialize (partitioning)
//   core.run      Simulation::run
//   ckpt.load     ckpt::load_checkpoint           (hotspot restart leg)
//   ckpt.restore  CheckpointEngine::restore       (hotspot restart leg)
//
// and checks the statistics digest of every run against an untimed serial
// reference run of the same generated system.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string_view>

#include "bench.h"
#include "ckpt/checkpoint.h"
#include "core/factory.h"
#include "core/simulation.h"
#include "generate.h"
#include "sdl/config_graph.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

struct SimCase {
  std::string name;
  std::string system_json;
  unsigned ranks = 1;
  /// Periodic checkpoints during the full run, then a restart leg that
  /// restores the newest snapshot and runs the tail to the end.
  sst::SimTime checkpoint_period = 0;
};

/// FNV-1a 64 over a byte string.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of every model statistic.  engine.* rows are skipped: they are
/// rank-count-dependent profiling output, present only in traced runs.
std::uint64_t stats_digest(const sst::StatisticsRegistry& stats) {
  std::uint64_t h = fnv1a("");
  char buf[64];
  for (const auto& s : stats.all()) {
    if (s->component().rfind("engine.", 0) == 0) continue;
    h = fnv1a(s->component() + '\0' + s->name() + '\0', h);
    for (const auto& f : s->fields()) {
      std::snprintf(buf, sizeof buf, "=%.17g;", f.value);
      h = fnv1a(f.name + buf, h);
    }
  }
  return h;
}

/// Sums one field over every statistic `stat` of components whose name
/// starts with `prefix`; `count` receives how many matched.
double sum_field(const sst::StatisticsRegistry& stats, std::string_view prefix,
                 std::string_view stat, std::string_view field,
                 unsigned* count = nullptr) {
  double total = 0.0;
  unsigned n = 0;
  for (const auto& s : stats.all()) {
    if (s->name() != stat || s->component().rfind(prefix, 0) != 0) continue;
    for (const auto& f : s->fields()) {
      if (f.name == field) {
        total += f.value;
        ++n;
      }
    }
  }
  if (count != nullptr) *count = n;
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double hit_ratio(const sst::StatisticsRegistry& stats, std::string_view prefix,
                 std::string_view hits, std::string_view misses) {
  const double h = sum_field(stats, prefix, hits, "count");
  return ratio(h, h + sum_field(stats, prefix, misses, "count"));
}

/// Per-layer counts and simulated statistics of one run (the full leg).
void layer_counts(const sst::Simulation& sim, const sst::RunStats& rs,
                  std::map<std::string, double>& m) {
  const auto& st = sim.stats();
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["core.events"] = d(rs.events_processed);
  m["core.clock_ticks"] = d(rs.clock_ticks);
  m["core.tick_recycle_ratio"] =
      ratio(d(rs.pool_recycles), d(rs.pool_allocs + rs.pool_recycles));
  unsigned ranks = 0;
  const double depth = sum_field(st, "engine.rank", "vortex_depth", "mean",
                                 &ranks);
  m["core.vortex_depth_mean"] = ratio(depth, ranks);
  m["core.sync_windows"] = d(rs.sync_windows);
  m["core.events_per_window"] =
      ratio(d(rs.events_processed), d(rs.sync_windows));
  m["core.lookahead_ps"] = rs.cut_links > 0 ? d(rs.lookahead) : 0.0;
  m["core.cut_links"] = d(rs.cut_links);
  m["core.barrier_wait_s"] =
      sum_field(st, "engine.rank", "barrier_wait_seconds", "sum");
  m["core.cross_rank_events"] = d(rs.cross_rank_events);
  m["core.cross_rank_frac"] =
      ratio(d(rs.cross_rank_events), d(rs.events_processed));
  m["core.exchange_flushes"] = d(rs.exchange_flushes);
  unsigned imb = 0;
  const double imbalance =
      sum_field(st, "engine.sync", "imbalance_ratio", "mean", &imb);
  m["core.imbalance_mean"] = ratio(imbalance, imb);
  m["core.rebalances"] = d(rs.rebalances);
  m["core.components_migrated"] = d(rs.components_migrated);
  m["ckpt.checkpoints"] = d(rs.checkpoints);
  m["ckpt.write_s"] = rs.checkpoint_seconds;

  const double instructions = sum_field(st, "cpu", "instructions", "count");
  m["proc.instructions"] = instructions;
  m["proc.ipc"] =
      ratio(instructions, sum_field(st, "cpu", "final_cycles", "sum"));
  m["mem.l1_hit_ratio"] = hit_ratio(st, "l1", "hits", "misses");
  m["mem.l2_hit_ratio"] = hit_ratio(st, "l2", "hits", "misses");
  m["mem.dram_row_hit_ratio"] = hit_ratio(st, "mc", "row_hits", "row_misses");
  m["vm.tlb_l1_hit_ratio"] = hit_ratio(st, "tlb", "l1_hits", "l1_misses");
  m["vm.walk_cache_hit_ratio"] =
      hit_ratio(st, "ptw", "walk_cache_hits", "pte_reads");
  m["vm.pte_reads"] = sum_field(st, "ptw", "pte_reads", "count");
  m["net.tokens_received"] = sum_field(st, "h", "received", "count");
}

struct Reference {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

/// Untimed serial run of the generated system: the digest every timed
/// run must reproduce, and the rank-invariant work count.
Reference reference_run(const SimCase& c, bool corrupt) {
  sst::sdl::ConfigGraph graph =
      sst::sdl::ConfigGraph::from_json_text(c.system_json);
  graph.sim_config().num_ranks = 1;
  auto sim = graph.build();
  const sst::RunStats rs = sim->run();
  Reference ref{stats_digest(sim->stats()), rs.events_processed};
  if (corrupt) ref.digest ^= 1;
  return ref;
}

struct RepOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double wall_s = 0.0;       // one repetition, counting one set-up sample
  double extra_setup_s = 0.0;  // time in the other set-up samples
  double full_run_s = 0.0;  // run_s of the full leg alone
  /// Per-layer metrics: set-up seconds (summed over legs) always, counts
  /// only in traced repetitions.
  std::map<std::string, double> layer;
};

/// Adds one timed set-up step to both setup_s and its layer metric.
void add_setup(RepOutcome& out, const std::string& metric, double seconds) {
  out.setup_s += seconds;
  out.layer[metric] += seconds;
}

/// Parse + validate + build + initialize (+ restore `state` when given),
/// each step timed under its span.  The whole set-up is repeated
/// kSetupSamples times and each step's median is added to setup_s and to
/// its layer metric, so sub-millisecond set-up costs still give steady
/// figures; returns the last build.
std::unique_ptr<sst::Simulation> set_up(
    sst::sdl::ConfigGraph& graph, const std::string& json, const SimCase& c,
    bool traced, const std::string& ckpt_dir, Spans& spans, RepOutcome& out,
    const std::vector<std::byte>* state = nullptr) {
  std::map<std::string, std::vector<double>> samples;
  std::unique_ptr<sst::Simulation> sim;
  for (int i = 0; i < kSetupSamples; ++i) {
    sim.reset();
    {
      Spans::Scope s(spans, "sdl.parse");
      graph = sst::sdl::ConfigGraph::from_json_text(json);
      samples["sdl.parse_s"].push_back(s.close());
    }
    sst::SimConfig& sc = graph.sim_config();
    sc.num_ranks = c.ranks;
    sc.profile_engine = traced;
    if (c.checkpoint_period > 0) {
      sc.checkpoint_period = c.checkpoint_period;
      sc.checkpoint_dir = ckpt_dir;
    }
    {
      Spans::Scope s(spans, "sdl.validate");
      const auto problems = graph.validate(sst::Factory::instance());
      samples["sdl.validate_s"].push_back(s.close());
      if (!problems.empty()) throw sst::ConfigError(problems.front());
    }
    {
      Spans::Scope s(spans, "sdl.build");
      sim = graph.build();
      sim->initialize();
      samples["sdl.build_s"].push_back(s.close());
    }
    if (state != nullptr) {
      std::vector<std::byte> copy = *state;
      Spans::Scope s(spans, "ckpt.restore");
      sst::ckpt::CheckpointEngine::restore(*sim, std::move(copy));
      samples["ckpt.restore_s"].push_back(s.close());
    }
  }
  for (const auto& [name, v] : samples) {
    const double m = median(v);
    add_setup(out, name, m);
    for (const double t : v) out.extra_setup_s += t;
    out.extra_setup_s -= m;
  }
  return sim;
}

bool check_digest(const sst::Simulation& sim, const Reference& ref,
                  const char* leg, Spans& spans) {
  Spans::Scope s(spans, "check.digest");
  if (stats_digest(sim.stats()) == ref.digest) return true;
  std::cerr << "perfbench: " << leg
            << " statistics differ from the serial reference\n";
  return false;
}

RepOutcome sim_rep(const SimCase& c, const Reference& ref, bool traced,
                   const std::string& ckpt_dir, Spans& spans) {
  RepOutcome out;
  const bool restart_leg = c.checkpoint_period > 0;
  out.attempted = restart_leg ? 2 : 1;
  std::uint64_t passed = 0;
  Spans::Scope rep(spans, "rep");
  try {
    sst::sdl::ConfigGraph graph;
    auto sim = set_up(graph, c.system_json, c, traced, ckpt_dir, spans, out);
    if (restart_leg) {
      Spans::Scope s(spans, "ckpt.install_writer");
      sst::ckpt::install_writer(*sim, graph.to_json().dump());
      add_setup(out, "ckpt.install_s", s.close());
    }
    sst::RunStats rs;
    {
      Spans::Scope s(spans, "core.run");
      rs = sim->run();
      out.full_run_s = s.close();
      out.run_s += out.full_run_s;
    }
    if (traced) layer_counts(*sim, rs, out.layer);
    if (check_digest(*sim, ref, "full run", spans)) ++passed;

    if (restart_leg) {
      sst::ckpt::CheckpointData data;
      std::string loaded;
      {
        Spans::Scope s(spans, "ckpt.load");
        data = sst::ckpt::load_checkpoint(ckpt_dir, &loaded);
        add_setup(out, "ckpt.restore_s", s.close());
      }
      out.layer["ckpt.snapshot_bytes"] =
          static_cast<double>(fs::file_size(loaded));
      sst::sdl::ConfigGraph tail_graph;
      auto tail = set_up(tail_graph, data.graph_json, c, traced, ckpt_dir,
                         spans, out, &data.state);
      {
        Spans::Scope s(spans, "ckpt.install_writer");
        sst::ckpt::install_writer(*tail, tail_graph.to_json().dump(),
                                  data.seq);
        add_setup(out, "ckpt.install_s", s.close());
      }
      {
        Spans::Scope s(spans, "core.run");
        tail->run();
        out.run_s += s.close();
      }
      if (check_digest(*tail, ref, "resumed tail", spans)) ++passed;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << c.name << " repetition failed: " << e.what()
              << "\n";
  }
  out.failed = out.attempted - passed;
  out.wall_s = rep.close() - out.extra_setup_s;
  return out;
}

WorkloadResult run_sim_case(const SimCase& c, const Options& opt,
                            Spans& spans) {
  const std::string scratch = opt.work_dir + "/" + c.name + "-" +
                              std::to_string(::getpid());
  const std::string ckpt_dir = scratch + "/ckpt";
  // Set-up, untimed and outside every span: the reference run, then
  // warm-up repetitions until kWarmupSeconds have passed.  On virtualized
  // hosts a barrier-heavy run starts fast and settles several-fold slower
  // after about a second of sustained cross-core wakeups; timing only the
  // settled state keeps the medians steady.
  const auto setup_start = std::chrono::steady_clock::now();
  const Reference ref = reference_run(c, opt.corrupt_reference);
  // Work rates divide the serial reference count by the time of the full
  // run that covers it.  The resumed tail is left out: its event counter
  // resumes from the snapshot's, so its own share of the work is not
  // visible from outside.
  const auto ref_events = static_cast<double>(ref.events);
  WorkloadResult res;
  do {
    fs::remove_all(ckpt_dir);
    const RepOutcome o = sim_rep(c, ref, false, ckpt_dir, spans);
    res.attempted += o.attempted;
    res.failed += o.failed;
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         setup_start)
               .count() < kWarmupSeconds);

  std::vector<double> setup, run, events_per_s, points_per_s;
  std::vector<double> untraced_run, full_run;
  std::map<std::string, std::vector<double>> layer;
  for (RepLoop loop(opt.seconds, opt.trace); loop.more(); loop.next()) {
    const bool traced = loop.traced();
    fs::remove_all(ckpt_dir);
    spans.set_rep(loop.rep());
    spans.set_recording(traced);
    const RepOutcome o = sim_rep(c, ref, traced, ckpt_dir, spans);
    spans.set_recording(false);
    res.attempted += o.attempted;
    res.failed += o.failed;
    std::cerr << "rep " << loop.rep() << (traced ? " traced" : "")
              << ": setup " << o.setup_s << " s, run " << o.run_s << " s\n";
    if (traced) {
      run.push_back(o.run_s);
      full_run.push_back(o.full_run_s);
      for (const auto& [name, v] : o.layer) layer[name].push_back(v);
    } else if (opt.trace) {
      untraced_run.push_back(o.run_s);
    } else {
      setup.push_back(o.setup_s);
      run.push_back(o.run_s);
      events_per_s.push_back(ratio(ref_events, o.full_run_s));
      points_per_s.push_back(ratio(1.0, o.wall_s));
    }
  }
  fs::remove_all(scratch);

  if (!opt.trace) {
    res.end_to_end["setup_s"] = median(setup);
    res.end_to_end["run_s"] = median(run);
    res.end_to_end["events_per_s"] = median(events_per_s);
    res.end_to_end["points_per_s"] = median(points_per_s);
    res.end_to_end["peak_rss_mb"] = peak_rss_mb(false);
    return res;
  }
  auto& m = res.per_layer;
  for (const auto& [name, v] : layer) m[name] = median(v);
  m.erase("ckpt.install_s");  // part of setup_s, not a named layer metric
  const double full_s = median(full_run);
  const double kinstr = m["proc.instructions"] / 1000.0;
  m["core.ref_events"] = ref_events;
  m["core.ns_per_event"] = ratio(full_s, ref_events) * 1e9;
  m["core.barrier_wait_share"] =
      ratio(m["core.barrier_wait_s"], c.ranks * full_s);
  m["proc.events_per_kinstr"] = ratio(ref_events, kinstr);
  m["proc.sim_kips"] = ratio(kinstr, full_s);
  m["obs.trace_overhead"] = ratio(median(run), median(untraced_run)) - 1.0;
  return res;
}

}  // namespace

WorkloadResult run_node_serial(const Options& opt, Spans& spans) {
  return run_sim_case(
      {"node_serial", node_system_json(opt.seed, kNodeSerial), 1, 0}, opt,
      spans);
}

WorkloadResult run_node_ranks2(const Options& opt, Spans& spans) {
  return run_sim_case(
      {"node_ranks2", node_system_json(opt.seed, kNodeRanks2), 2, 0}, opt,
      spans);
}

WorkloadResult run_hotspot_ranks4(const Options& opt, Spans& spans) {
  return run_sim_case({"hotspot_ranks4", hotspot_system_json(opt.seed, kHotspot),
                       4, kHotspotCheckpointPeriod},
                      opt, spans);
}

}  // namespace perfbench
