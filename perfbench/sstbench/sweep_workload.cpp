// sweep_local: a seeded, randomly sampled design-space sweep run through
// the dse layer's public functions, one repetition at a time:
//
//   dse.spec         SweepSpec::from_json_text + base model parse +
//                    validate_axes
//   dse.expand       generate_points
//   dse.ledger_open  Ledger::load on a fresh sweep directory
//   dse.run_points   run_points (fork/exec children, concurrency 2)
//   dse.aggregate    collect_results + compute_pareto + results table
//
// Every point must finish "ok" and the results table must be
// byte-identical to the one an untimed reference sweep produced.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench.h"
#include "dse/aggregate.h"
#include "dse/ledger.h"
#include "dse/orchestrator.h"
#include "dse/point_gen.h"
#include "dse/sweep_spec.h"
#include "generate.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A child's own work, from the "done: t=... ps, N events, S s wall"
/// line sstsim prints: events and seconds inside Simulation::run.
struct ChildRun {
  double events = 0.0;
  double run_s = 0.0;
};

ChildRun child_run(const std::string& point_dir) {
  std::ifstream in(point_dir + "/run.log");
  std::string line;
  ChildRun r;
  while (std::getline(in, line)) {
    if (line.rfind("done: ", 0) != 0) continue;
    const auto comma = line.find(", ");
    std::istringstream fields(line.substr(comma + 2));
    std::string word;
    fields >> r.events >> word;  // "<N> events,"
    fields >> r.run_s;           // "<S> s wall"
  }
  return r;
}

struct SweepRep {
  std::uint64_t points = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double wall_s = 0.0;       // one repetition, counting one set-up sample
  double extra_setup_s = 0.0;  // time in the other set-up samples
  double child_events = 0.0;
  std::map<std::string, double> times;
};

/// One full sweep into the empty directory `out_dir`.  `table` receives
/// the results CSV.
SweepRep sweep_rep(const std::string& spec_text, const std::string& spec_dir,
                   const std::string& out_dir, const std::string& sstsim,
                   std::string& table, Spans& spans) {
  SweepRep r;
  Spans::Scope rep(spans, "rep");
  // Set-up is repeated kSetupSamples times (medians reported) so its
  // sub-millisecond cost gives steady figures; the last pass is used.
  sst::dse::SweepSpec spec;
  sst::sdl::JsonValue base_model;
  std::vector<sst::dse::Point> points;
  std::unique_ptr<sst::dse::Ledger> ledger;
  std::map<std::string, std::vector<double>> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    {
      Spans::Scope s(spans, "dse.spec");
      spec = sst::dse::SweepSpec::from_json_text(spec_text, spec_dir);
      base_model = sst::sdl::JsonValue::parse(read_file(spec.model_path));
      sst::dse::validate_axes(spec, base_model);
      samples["dse.spec_s"].push_back(s.close());
    }
    {
      Spans::Scope s(spans, "dse.expand");
      points = sst::dse::generate_points(spec);
      samples["dse.expand_s"].push_back(s.close());
    }
    {
      Spans::Scope s(spans, "dse.ledger_open");
      fs::create_directories(out_dir);
      ledger = std::make_unique<sst::dse::Ledger>(out_dir + "/ledger.jsonl");
      ledger->load(spec.name, points.size());
      samples["dse.ledger_open_s"].push_back(s.close());
    }
  }
  for (const auto& [name, v] : samples) {
    r.times[name] = median(v);
    r.setup_s += r.times[name];
    for (const double t : v) r.extra_setup_s += t;
    r.extra_setup_s -= r.times[name];
  }
  r.points = points.size();
  sst::dse::OrchestratorOptions orch;
  orch.sstsim_path = sstsim;
  orch.out_dir = out_dir;
  orch.verbose = false;
  sst::dse::OrchestratorSummary summary;
  {
    Spans::Scope s(spans, "dse.run_points");
    summary = sst::dse::run_points(spec, points, base_model, *ledger, orch);
    r.run_s = s.close();
  }
  r.times["dse.run_points_s"] = r.run_s;
  {
    Spans::Scope s(spans, "dse.aggregate");
    std::vector<sst::dse::PointResult> rows =
        sst::dse::collect_results(spec, points, *ledger, out_dir);
    sst::dse::compute_pareto(spec, rows);
    std::ostringstream csv;
    sst::dse::write_results_csv(spec, rows, csv);
    table = csv.str();
    write_file(out_dir + "/results.csv", table);
    r.times["dse.aggregate_s"] = s.close();
  }
  r.wall_s = rep.close() - r.extra_setup_s;
  r.failed = summary.failed;
  double child_s = 0.0;
  for (const auto& p : points) {
    const ChildRun c = child_run(sst::dse::point_dir(out_dir, p.id));
    r.child_events += c.events;
    child_s += c.run_s;
  }
  r.times["dse.child_run_s"] = child_s;
  return r;
}

}  // namespace

WorkloadResult run_sweep_local(const Options& opt, Spans& spans) {
  if (opt.sstsim.empty() || !fs::exists(opt.sstsim)) {
    throw std::runtime_error("sweep_local needs the sstsim binary (--sstsim)");
  }
  const std::string scratch = opt.work_dir + "/sweep_local-" +
                              std::to_string(::getpid());
  fs::create_directories(scratch);
  write_file(scratch + "/model.json", sweep_model_json(opt.seed));
  const std::string spec_text = sweep_spec_json(opt.seed, "model.json");
  const std::string sstsim = fs::absolute(opt.sstsim).string();

  // Untimed reference sweep: the table every timed repetition must match.
  std::string reference;
  {
    const std::string dir = scratch + "/reference";
    const SweepRep ref = sweep_rep(spec_text, scratch, dir, sstsim, reference,
                                   spans);
    if (ref.failed != 0) {
      std::cerr << "perfbench: reference sweep had " << ref.failed
                << " failed points\n";
    }
    fs::remove_all(dir);
    if (opt.corrupt_reference) reference += "corrupted\n";
  }

  WorkloadResult res;
  std::vector<double> setup, run, events_per_s, points_per_s;
  std::vector<double> untraced_run;
  std::map<std::string, std::vector<double>> layer_times;
  for (RepLoop loop(opt.seconds, opt.trace); loop.more(); loop.next()) {
    const bool traced = loop.traced();
    const std::string dir = scratch + "/rep";
    fs::remove_all(dir);
    spans.set_rep(loop.rep());
    spans.set_recording(traced);
    std::string table;
    SweepRep r;
    try {
      r = sweep_rep(spec_text, scratch, dir, sstsim, table, spans);
      if (table != reference) {
        std::cerr << "perfbench: sweep results table differs from the "
                     "reference\n";
        r.failed = r.points;
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: sweep repetition failed: " << e.what() << "\n";
      r.points = std::max<std::uint64_t>(r.points, kSweepPoints);
      r.failed = r.points;
    }
    spans.set_recording(false);
    res.attempted += r.points;
    res.failed += r.failed;
    std::cerr << "rep " << loop.rep() << (traced ? " traced" : "")
              << ": setup " << r.setup_s << " s, run " << r.run_s << " s\n";
    if (traced) {
      run.push_back(r.run_s);
      for (const auto& [name, t] : r.times) layer_times[name].push_back(t);
    } else if (opt.trace) {
      untraced_run.push_back(r.run_s);
    } else {
      setup.push_back(r.setup_s);
      run.push_back(r.run_s);
      events_per_s.push_back(r.run_s > 0 ? r.child_events / r.run_s : 0.0);
      points_per_s.push_back(r.wall_s > 0 ? r.points / r.wall_s : 0.0);
    }
  }
  fs::remove_all(scratch);

  if (!opt.trace) {
    res.end_to_end["setup_s"] = median(setup);
    res.end_to_end["run_s"] = median(run);
    res.end_to_end["events_per_s"] = median(events_per_s);
    res.end_to_end["points_per_s"] = median(points_per_s);
    res.end_to_end["peak_rss_mb"] = peak_rss_mb(true);
    return res;
  }
  auto& m = res.per_layer;
  for (const auto& [name, v] : layer_times) m[name] = median(v);
  m["dse.dispatch_ms_per_point"] =
      (m["dse.run_points_s"] * kSweepConcurrency - m["dse.child_run_s"]) /
      kSweepPoints * 1000.0;
  m["obs.trace_overhead"] =
      m["dse.run_points_s"] / median(untraced_run) - 1.0;
  return res;
}

}  // namespace perfbench
