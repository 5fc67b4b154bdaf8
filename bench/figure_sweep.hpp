// Shared driver for Figures 5 and 6: the {Beluga, Narval} x
// {2_GPUs, 3_GPUs, 3_GPUs_w_host} x {window 1, 16} bandwidth panels, with
// the paper's four series per panel:
//   Direct Path           — single-path UCX baseline,
//   Static Path Dist.     — offline exhaustive-search plan,
//   Dynamic Path Dist.    — runtime model-driven configuration,
//   Model-Driven Pred.    — the model's predicted bandwidth (not measured).
// Prediction error is reported against the observed optimum, as in the
// paper ("percentage deviation from the observed optimal performance").
//
// The sweep is a shared-nothing parallel fan-out in three phases (see
// DESIGN.md, "Parallel sweeps"):
//   A. calibrate each system once — the immutable snapshot every later
//      scenario reads;
//   B. tune the static baseline per (system, policy, anchor size), each
//      task with a private StaticTuner;
//   C. measure every (system, policy, window, size) cell on a private
//      simulation stack with a private PathConfigurator over the shared
//      const registry.
// All order-sensitive output (tables, CSV rows, error accumulation) runs
// in one serial merge over the index-ordered results, so every --jobs
// value emits byte-identical files.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"

namespace mpath::bench {

struct PanelErrors {
  util::RunningStats all;
  util::RunningStats above_4mb;
};

inline void run_bandwidth_figure(const std::string& figure_id,
                                 tuning::TuneMetric metric, bool quick,
                                 int jobs = 0) {
  const bool bidirectional = metric == tuning::TuneMetric::Bidirectional;
  const std::vector<std::string> systems = {"beluga", "narval"};
  const auto policies = figure_policies();
  const std::vector<int> windows = {1, 16};
  const auto sizes = message_sizes(quick);
  const std::size_t n_pol = policies.size();
  const std::size_t n_win = windows.size();
  const std::size_t n_size = sizes.size();

  benchcore::SweepRunner runner(benchcore::SweepOptions{jobs});

  // Phase A — one calibration per system; the resulting registry is the
  // immutable snapshot shared (read-only) by every phase-B/C scenario.
  auto cals = runner.run(systems.size(), [&](std::size_t s) {
    return std::make_unique<CalibratedSystem>(topo::make_system(systems[s]));
  });

  // Phase B — static-plan tuning, deduplicated: the cells only ever ask
  // for anchor sizes, so tune each (system, policy, anchor) exactly once.
  std::vector<std::size_t> anchors;
  for (std::size_t bytes : sizes) {
    const std::size_t a = tuning_anchor(bytes);
    if (std::find(anchors.begin(), anchors.end(), a) == anchors.end()) {
      anchors.push_back(a);
    }
  }
  const std::size_t n_anchor = anchors.size();
  const auto anchor_index = [&](std::size_t bytes) {
    return static_cast<std::size_t>(
        std::find(anchors.begin(), anchors.end(), tuning_anchor(bytes)) -
        anchors.begin());
  };
  auto tuned = runner.run(
      systems.size() * n_pol * n_anchor, [&](std::size_t t) {
        const std::size_t s = t / (n_pol * n_anchor);
        const std::size_t p = (t / n_anchor) % n_pol;
        const std::size_t a = t % n_anchor;
        tuning::StaticTuner tuner(cals[s]->system, policies[p],
                                  tuner_options(metric, quick));
        return tuner.tune(anchors[a]).plan;
      });

  // Phase C — the measurement grid. Each cell builds private stacks and a
  // private PathConfigurator; only the calibrated snapshot is shared.
  struct Cell {
    double direct = 0.0;
    double static_bw = 0.0;
    double dynamic = 0.0;
    double predicted = 0.0;
  };
  const std::size_t n_cells = systems.size() * n_pol * n_win * n_size;
  auto cells = runner.run(n_cells, [&](std::size_t idx) {
    const std::size_t s = idx / (n_pol * n_win * n_size);
    const std::size_t p = (idx / (n_win * n_size)) % n_pol;
    const std::size_t w = (idx / n_size) % n_win;
    const std::size_t bytes = sizes[idx % n_size];
    const CalibratedSystem& cal = *cals[s];
    const auto& policy = policies[p];
    const auto gpus = cal.system.topology.gpus();

    benchcore::P2POptions p2p;
    p2p.window = windows[w];
    p2p.iterations = windows[w] == 1 ? 4 : 2;
    p2p.warmup = 1;
    auto measure = [&](benchcore::SimStack& stack) {
      return bidirectional
                 ? benchcore::measure_bibw(stack.world(), bytes, p2p)
                 : benchcore::measure_bw(stack.world(), bytes, p2p);
    };

    Cell cell;
    auto direct_stack = benchcore::SimStack::direct(cal.system);
    cell.direct = measure(direct_stack);

    const auto& plan = tuned[(s * n_pol + p) * n_anchor + anchor_index(bytes)];
    auto static_stack = benchcore::SimStack::static_plan(cal.system, plan);
    cell.static_bw = measure(static_stack);

    // Private configurator: same arithmetic as a shared one (configs are
    // pure functions of the registry), without cross-thread cache traffic.
    model::PathConfigurator configurator(cal.registry);
    auto dynamic_stack =
        benchcore::SimStack::model_driven(cal.system, configurator, policy);
    cell.dynamic = measure(dynamic_stack);

    // The model predicts one transfer's aggregate bandwidth; for the
    // bidirectional test it predicts each direction independently (it does
    // not model cross-direction contention — the gap the paper's
    // Observation 5 discusses).
    cell.predicted = (bidirectional ? 2.0 : 1.0) *
                     benchcore::predicted_bandwidth(configurator,
                                                    cal.system.topology,
                                                    gpus[0], gpus[1], bytes,
                                                    policy);
    return cell;
  });

  // Serial merge in grid order: every table row, CSV row and error-stat
  // update happens here, identically for any worker count.
  util::CsvWriter csv(results_dir() + "/" + figure_id + "_bandwidth.csv");
  csv.header({"system", "policy", "window", "bytes", "direct_gbps",
              "static_gbps", "dynamic_gbps", "predicted_gbps",
              "error_vs_best"});
  PanelErrors errors_no_host, errors_host;
  std::size_t idx = 0;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (std::size_t p = 0; p < n_pol; ++p) {
      const auto& policy = policies[p];
      for (std::size_t w = 0; w < n_win; ++w) {
        util::Table table({"size", "direct GB/s", "static GB/s",
                           "dynamic GB/s", "predicted GB/s", "err vs best"});
        for (std::size_t bytes : sizes) {
          const Cell& cell = cells[idx++];
          const double best =
              std::max({cell.direct, cell.static_bw, cell.dynamic});
          const double err = util::relative_error(cell.predicted, best);
          auto& errs = policy.include_host ? errors_host : errors_no_host;
          errs.all.add(err);
          if (bytes > 4_MiB) errs.above_4mb.add(err);

          table.add_row({util::format_bytes(bytes), gb(cell.direct),
                         gb(cell.static_bw), gb(cell.dynamic),
                         gb(cell.predicted), pct(err)});
          csv.row({systems[s], policy.label(), std::to_string(windows[w]),
                   std::to_string(bytes), util::CsvWriter::num(cell.direct),
                   util::CsvWriter::num(cell.static_bw),
                   util::CsvWriter::num(cell.dynamic),
                   util::CsvWriter::num(cell.predicted),
                   util::CsvWriter::num(err)});
        }
        std::printf("-- %s panel: %s on %s, %s, window=%d --\n",
                    figure_id.c_str(), bidirectional ? "BIBW" : "BW",
                    systems[s].c_str(), policy.label().c_str(), windows[w]);
        table.print();
        std::printf("\n");
      }
    }
  }
  csv.close();

  std::printf("== %s prediction-error summary ==\n", figure_id.c_str());
  std::printf("  without host staging: mean %.1f%% (all sizes), "
              "%.1f%% (>4MB)\n",
              100.0 * errors_no_host.all.mean(),
              100.0 * errors_no_host.above_4mb.mean());
  std::printf("  with host staging:    mean %.1f%% (all sizes), "
              "%.1f%% (>4MB)\n",
              100.0 * errors_host.all.mean(),
              100.0 * errors_host.above_4mb.mean());
  std::printf("CSV written to %s/%s_bandwidth.csv\n\n",
              results_dir().c_str(), figure_id.c_str());
  report_sweep(figure_id, runner.stats());
}

}  // namespace mpath::bench
