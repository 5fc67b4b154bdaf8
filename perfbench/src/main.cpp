// Repository benchmark: runs one workload in this process and prints
// its metrics as one JSON object on the last line of standard output.
//
//   mpath_perfbench --workload osu-p2p|churn-32|collective-chain|tenants-faulted
//                   --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics: the timed phase alternates untraced and traced cycles (the gap
// between them is trace.overhead_pct), and the traced spans are written to
// DIR as a Chrome trace plus a table of self time by layer.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.hpp"
#include "host_ref.hpp"
#include "mpath/benchcore/alloc_hook.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 41;
/// Step time between two runs of the host-speed reference kernel; short
/// enough to follow the host's speed-mode switches.
constexpr double kSegmentNs = 50e6;

struct Args {
  std::string workload;
  std::string out = ".";
  Options opt;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mpath_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.opt.trace = std::string(val) == "1";
    } else if (key == "--out") {
      a.out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("arguments come in --key value pairs");
  if (!(a.opt.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt, Tracer& tracer) {
  if (name == "osu-p2p") return make_osu_p2p(opt, tracer);
  if (name == "churn-32") return make_churn32(opt, tracer);
  if (name == "collective-chain") return make_collective_chain(opt, tracer);
  if (name == "tenants-faulted") return make_tenants_faulted(opt, tracer);
  usage(("unknown workload " + name).c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Timed-phase totals for one tracing mode.
struct Phase {
  std::uint64_t units = 0;
  std::uint64_t steps = 0;
  double wall_ns = 0.0;
  std::uint64_t allocs = 0;
  [[nodiscard]] double units_per_s() const {
    return ratio(static_cast<double>(units), wall_ns * 1e-9);
  }
};

/// The layer-separation self-check: each workload must hit the layers it
/// was chosen for and bypass the others.
std::vector<std::string> layer_self_check(const LayerUse& use,
                                          const Counters& c) {
  std::vector<std::string> bad;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  expect(use.transport ? c.msgs > 0 : c.msgs == 0,
         use.transport ? "transport.msgs_per_unit is 0"
                       : "transport.msgs_per_unit is not 0");
  if (use.graphs >= 0) {
    expect(use.graphs == 1 ? c.compiles > 0 : c.compiles == 0,
           use.graphs == 1 ? "pipeline.graph.compiles_per_unit is 0"
                           : "pipeline.graph.compiles_per_unit is not 0");
  }
  expect(use.joint ? c.joint_iterations > 0 : c.joint_iterations == 0,
         use.joint ? "pipeline.sched.joint_iters_per_unit is 0"
                   : "pipeline.sched.joint_iters_per_unit is not 0");
  expect(use.chain ? c.chain_replayed > 0 : c.chain_replayed == 0,
         use.chain ? "pipeline.chain.replayed_frac is 0"
                   : "pipeline.chain.replayed_frac is not 0");
  if (use.configurator_misses) {
    expect(c.cfg_misses > 0, "model.cache_hit_frac is 1");
  }
  return bad;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Options& opt = args.opt;
  Tracer tracer;
  tracer.set_enabled(opt.trace);
  std::unique_ptr<Workload> w = make_workload(args.workload, opt, tracer);

  // Host times are normalized by the reference kernel run between set-up
  // repetitions and between segments of the timed phase (see host_ref.hpp);
  // `refs` keeps every kernel time, `raw_ns` the unnormalized total.
  std::vector<double> refs = {run_reference()};
  const auto host_factor = [&refs] {
    refs.push_back(run_reference());
    return kReferenceNominalNs / (0.5 * (refs[refs.size() - 2] + refs.back()));
  };

  // Set-up is repeated and its median reported, so work moved into set-up
  // shows without one slow repetition deciding the number.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetups; ++r) {
    const double t0 = now_ns();
    w->setup();
    const double dt = now_ns() - t0;
    setup_s.push_back(dt * host_factor() * 1e-9);
  }

  // Timed phase, in whole cycles. Untraced runs time every step; traced
  // runs alternate untraced and traced cycles, at least one of each.
  // Segments never straddle a cycle.
  const double budget_ns = opt.seconds * 1e9;
  const std::int64_t cycle = w->cycle();
  const std::int64_t min_steps =
      std::max(w->min_steps(), opt.trace ? 2 * cycle : cycle);
  Phase phases[2];
  std::vector<double> step_ms;
  std::vector<double> segment_ns;  // raw step times since the last kernel run
  double segment_total = 0.0;
  double raw_ns = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Read after a fixed amount of work, not at exit: a faster host runs more
  // steps in the same seconds, and memory that grows per step would read
  // as a host-speed figure.
  double rss_mib = 0.0;
  bool traced = false;
  const auto close_segment = [&] {
    if (segment_ns.empty()) return;
    const double f = host_factor();
    for (double dt : segment_ns) {
      step_ms.push_back(dt * f * 1e-6);
      phases[traced ? 1 : 0].wall_ns += dt * f;
      raw_ns += dt;
    }
    segment_ns.clear();
    segment_total = 0.0;
  };
  const double start = now_ns();
  for (std::int64_t i = 0;; ++i) {
    if (i % cycle == 0) {
      close_segment();
      if (now_ns() - start >= budget_ns && i >= min_steps) break;
      traced = opt.trace && (i / cycle) % 2 == 1;
    }
    tracer.set_enabled(traced);
    tracer.set_step(i);
    const std::uint64_t allocs0 = bc::alloc_count();
    const double t0 = now_ns();
    StepOutcome out;
    {
      auto span = tracer.open("bench.step");
      out = w->step(i);
    }
    const double dt = now_ns() - t0;
    segment_ns.push_back(dt);
    segment_total += dt;
    Phase& p = phases[traced ? 1 : 0];
    p.allocs += bc::alloc_count() - allocs0;
    p.units += out.units;
    ++p.steps;
    attempted += out.units;
    failed += out.failed;
    if (i + 1 == w->min_steps()) rss_mib = peak_rss_mib();
    if (segment_total >= kSegmentNs) close_segment();
  }
  const double phase_s = (now_ns() - start) * 1e-9;
  tracer.set_enabled(false);
  const Counters c = w->counters();
  const Finish fin = w->finish();

  std::vector<std::string> problems = fin.failures;
  if (!problems.empty()) failed = attempted;
  const std::vector<std::string> layer_errors =
      layer_self_check(w->layers(), c);
  problems.insert(problems.end(), layer_errors.begin(), layer_errors.end());
  for (const std::string& p : problems) {
    std::fprintf(stderr, "%s: check failed: %s\n", args.workload.c_str(),
                 p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;

  const double units = static_cast<double>(attempted);
  const auto steps = static_cast<double>(step_ms.size());
  const double norm_ns = phases[0].wall_ns + phases[1].wall_ns;
  std::fprintf(stderr,
               "%s seed %llu: %.0f units in %zu steps (%lld cycles) over "
               "%.2f s; step_ms samples: %zu; set-up runs: %d; reference "
               "kernel median %.3f ms (nominal %.3f ms); raw %.6g units/s\n",
               args.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               units, step_ms.size(),
               static_cast<long long>(static_cast<std::int64_t>(step_ms.size()) /
                                      cycle),
               phase_s, step_ms.size(), kSetups, quantile(refs, 0.5) * 1e-6,
               kReferenceNominalNs * 1e-6, units / (raw_ns * 1e-9));

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"units_per_s", "units/s", units / (norm_ns * 1e-9)},
        {"step_ms_p50", "ms", quantile(step_ms, 0.50)},
        {"step_ms_p95", "ms", quantile(step_ms, 0.95)},
        {"setup_s", "s", quantile(setup_s, 0.5)},
        {"peak_rss_mib", "MiB", rss_mib},
        {"ok_frac", "ratio", ratio(units - static_cast<double>(failed), units)},
        {"sim_gbps", "GB/s", fin.sim_gbps},
        {"speedup_vs_direct", "x", fin.speedup_vs_direct},
        {"pred_err_pct", "%", fin.pred_err_pct},
    };
  } else {
    const auto per_unit = [&](std::uint64_t v) {
      return ratio(static_cast<double>(v), units);
    };
    const auto mean_ms = [&](const char* name) {
      std::size_t n = 0;
      const double total = tracer.total_ns(name, &n);
      return ratio(total, static_cast<double>(n)) * 1e-6;
    };
    const char* kDrive[] = {"sim.Engine.run", "mpisim.World.run"};
    double drive_self = 0.0;
    std::uint64_t drive_events = 0;
    for (const char* d : kDrive) {
      drive_self += tracer.self_ns(d);
      drive_events += tracer.counters(d).events;
    }
    double builds_ns = 0.0;
    std::size_t builds = 0;
    for (const char* b :
         {"benchcore.SimStack.direct", "benchcore.SimStack.model_driven",
          "benchcore.SimStack.model_driven_scheduled"}) {
      std::size_t n = 0;
      builds_ns += tracer.total_ns(b, &n);
      builds += n;
    }
    const Phase& plain = phases[0];
    const Phase& with_trace = phases[1];
    metrics = {
        {"sim.events_per_unit", "count", per_unit(c.events)},
        {"sim.ns_per_event", "ns",
         ratio(drive_self, static_cast<double>(drive_events))},
        {"sim.fluid.resolves_per_unit", "count", per_unit(c.resolves)},
        {"sim.fluid.flows_resolved_per_unit", "count",
         per_unit(c.flows_resolved)},
        {"sim.fluid.coalesced_frac", "ratio",
         ratio(static_cast<double>(c.coalesced),
               static_cast<double>(c.resolve_requests))},
        {"sim.fluid.stale_timer_frac", "ratio",
         ratio(static_cast<double>(c.timers_stale),
               static_cast<double>(c.timers_fired + c.timers_stale))},
        {"sim.fluid.link_util_max", "ratio", fin.link_util_max},
        {"sim.fluid.capacity_changes", "count",
         ratio(static_cast<double>(c.capacity_changes), steps)},
        {"gpusim.ops_per_unit", "count", per_unit(c.gpu_ops)},
        {"gpusim.copy_bytes_per_unit", "B", per_unit(c.copy_bytes)},
        {"gpusim.events_leaked", "count",
         static_cast<double>(fin.events_leaked)},
        {"pipeline.execs_per_unit", "count", per_unit(c.execs)},
        {"pipeline.plan_us_per_unit", "us", per_unit(c.plan_ns) * 1e-3},
        {"pipeline.graph.compiles_per_unit", "count", per_unit(c.compiles)},
        {"pipeline.graph.busy_fallbacks_per_unit", "count",
         per_unit(c.busy_fallbacks)},
        {"pipeline.graph.replay_frac", "ratio",
         ratio(static_cast<double>(c.replays),
               static_cast<double>(fin.multipath_transfers))},
        {"pipeline.chain.replayed_frac", "ratio",
         ratio(static_cast<double>(c.chain_replayed),
               static_cast<double>(c.chain_replayed + c.chain_passthrough))},
        {"pipeline.chain.captures", "count",
         static_cast<double>(fin.chain_captures)},
        {"pipeline.sched.admits_per_unit", "count", per_unit(c.admitted)},
        {"pipeline.sched.joint_iters_per_unit", "count",
         per_unit(c.joint_iterations)},
        {"pipeline.sched.replans_per_unit", "count", per_unit(c.replans)},
        {"pipeline.sched.footprint_mismatches", "count",
         static_cast<double>(c.footprint_mismatches)},
        {"pipeline.recovery.timeouts_per_unit", "count",
         per_unit(c.path_timeouts)},
        {"pipeline.recovery.failed_frac", "ratio",
         per_unit(c.transfers_failed)},
        {"pipeline.health.probes_per_unit", "count",
         per_unit(c.probes_launched)},
        {"model.cache_hit_frac", "ratio",
         ratio(static_cast<double>(c.cfg_hits),
               static_cast<double>(c.cfg_hits + c.cfg_misses))},
        {"model.predict_us", "us", mean_ms("model.compute_config") * 1e3},
        {"transport.msgs_per_unit", "count", per_unit(c.msgs)},
        {"transport.rndv_frac", "ratio",
         ratio(static_cast<double>(c.rndv), static_cast<double>(c.msgs))},
        {"transport.wakeups_coalesced_frac", "ratio",
         ratio(static_cast<double>(c.wakeups_coalesced),
               static_cast<double>(c.wakeups_scheduled +
                                   c.wakeups_coalesced))},
        {"mpisim.run_ms_per_step", "ms",
         ratio(tracer.self_ns("mpisim.World.run"),
               static_cast<double>(with_trace.steps)) *
             1e-6},
        {"topo.make_system_ms", "ms", mean_ms("topo.make_system")},
        {"tuning.calibrate_ms", "ms", mean_ms("tuning.calibrate")},
        {"benchcore.stack_build_us", "us",
         ratio(builds_ns, static_cast<double>(builds)) * 1e-3},
        {"mem.allocs_per_unit", "count",
         ratio(static_cast<double>(plain.allocs),
               static_cast<double>(plain.units))},
        {"host.reference_ms", "ms", quantile(refs, 0.5) * 1e-6},
        {"host.units_per_s_raw", "units/s", units / (raw_ns * 1e-9)},
        {"trace.overhead_pct", "%",
         100.0 *
             (ratio(plain.units_per_s(), with_trace.units_per_s()) - 1.0)},
    };
    const std::string stem =
        args.out + "/" + args.workload + "-seed" + std::to_string(opt.seed);
    tracer.write_chrome_trace(stem + ".trace.json");
    std::ofstream table(stem + ".layers.md");
    table << "# " << args.workload << ", seed " << opt.seed << "\n\n"
          << "Self time by layer over the traced cycles (" << with_trace.steps
          << " traced steps, " << plain.steps << " untraced):\n\n"
          << tracer.layer_table() << "\n| metric | value | unit |\n"
          << "|---|---|---|\n";
    for (const Metric& m : metrics) {
      table << "| " << m.name << " | " << m.value << " | " << m.unit << " |\n";
    }
    std::fprintf(stderr, "%s\nwrote %s.trace.json and %s.layers.md\n",
                 tracer.layer_table().c_str(), stem.c_str(), stem.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return 0;
}
