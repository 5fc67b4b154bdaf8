// Shared plumbing for the figure-reproduction benchmarks: the standard
// message-size grid of the paper's evaluation (2 MB - 512 MB), calibrated
// registries per system, result directories, and printing helpers.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mpath/benchcore/metrics.hpp"
#include "mpath/util/fsio.hpp"
#include "mpath/util/stats.hpp"
#include "mpath/benchcore/omb.hpp"
#include "mpath/benchcore/stack.hpp"
#include "mpath/benchcore/sweep.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/tuning/static_tuner.hpp"
#include "mpath/util/csv.hpp"
#include "mpath/util/table.hpp"
#include "mpath/util/units.hpp"

namespace mpath::bench {

using util::to_gbps;
using namespace util::literals;

/// The paper sweeps 2 MB .. 512 MB in powers of two; --quick drops to
/// three sizes so the whole harness can be smoke-tested rapidly.
inline std::vector<std::size_t> message_sizes(bool quick) {
  if (quick) return {8_MiB, 64_MiB, 512_MiB};
  return {2_MiB,  4_MiB,   8_MiB,   16_MiB,  32_MiB,
          64_MiB, 128_MiB, 256_MiB, 512_MiB};
}

inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") return true;
  }
  return std::getenv("MPATH_BENCH_QUICK") != nullptr;
}

/// Where the benches write their results: $MPATH_RESULTS_DIR, else
/// results/ in the working directory. Created on first use, so a bench can
/// be pointed at a directory that does not exist yet.
inline std::string results_dir() {
  static const std::string dir = [] {
    const char* env = std::getenv("MPATH_RESULTS_DIR");
    std::string d = env != nullptr ? env : "results";
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

/// Worker count for the parallel sweep harness: --jobs N / --jobs=N on the
/// command line, else MPATH_BENCH_JOBS, else 0 (= hardware concurrency).
/// Results are byte-identical for every value — --jobs only changes how
/// long the sweep takes (see DESIGN.md, "Parallel sweeps").
inline int jobs_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a == "--jobs" && i + 1 < argc) return std::atoi(argv[i + 1]);
    if (a.rfind("--jobs=", 0) == 0) return std::atoi(a.c_str() + 7);
  }
  if (const char* env = std::getenv("MPATH_BENCH_JOBS")) return std::atoi(env);
  return 0;
}

/// Print per-sweep throughput / efficiency and publish them (atomically)
/// as results/<figure>_sweep_stats.json for CI's BENCH_pr5.json roll-up.
inline void report_sweep(const std::string& figure_id,
                         const benchcore::SweepStats& stats) {
  std::printf(
      "== %s sweep: %zu scenarios on %d worker(s) in %.2fs wall "
      "(%.2f scenarios/s, %.0f%% parallel efficiency, %llu steals)\n",
      figure_id.c_str(), stats.scenarios, stats.jobs, stats.wall_s,
      stats.scenarios_per_s(), 100.0 * stats.efficiency(),
      static_cast<unsigned long long>(stats.steals));
  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"figure\": \"" << figure_id << "\",\n"
       << "  \"jobs\": " << stats.jobs << ",\n"
       << "  \"scenarios\": " << stats.scenarios << ",\n"
       << "  \"wall_s\": " << stats.wall_s << ",\n"
       << "  \"busy_s\": " << stats.busy_s() << ",\n"
       << "  \"scenarios_per_s\": " << stats.scenarios_per_s() << ",\n"
       << "  \"parallel_efficiency\": " << stats.efficiency() << ",\n"
       << "  \"steals\": " << stats.steals << "\n"
       << "}\n";
  util::write_file_atomic(results_dir() + "/" + figure_id + "_sweep_stats.json",
                          json.str());
}

/// Calibrated model registry + configurator for one system, built once and
/// shared across the bench's measurements (Fig. 2a Steps 1-2).
struct CalibratedSystem {
  topo::System system;
  model::ModelRegistry registry;
  std::unique_ptr<model::PathConfigurator> configurator;

  explicit CalibratedSystem(topo::System sys)
      : system(std::move(sys)),
        registry(tuning::calibrate(system)),
        configurator(std::make_unique<model::PathConfigurator>(registry)) {}
};

/// The three path policies of the paper's figures, in figure order.
inline std::vector<topo::PathPolicy> figure_policies() {
  return {topo::PathPolicy::two_gpus(), topo::PathPolicy::three_gpus(),
          topo::PathPolicy::three_gpus_with_host()};
}

inline tuning::StaticTunerOptions tuner_options(tuning::TuneMetric metric,
                                                bool quick) {
  tuning::StaticTunerOptions opt;
  opt.metric = metric;
  opt.fraction_step = quick ? 0.25 : 0.125;
  opt.chunk_grid = quick ? std::vector<int>{1, 16}
                         : std::vector<int>{1, 8, 32};
  opt.iterations = 2;
  opt.warmup = 1;
  return opt;
}

/// Static plans are tuned offline at anchor sizes and reused for nearby
/// sizes (tuning exhaustively at every point is exactly the cost the
/// paper's model avoids; anchoring keeps the harness fast while preserving
/// the static baseline's character).
inline std::size_t tuning_anchor(std::size_t bytes) {
  static const std::size_t anchors[] = {2_MiB, 8_MiB, 32_MiB, 128_MiB,
                                        512_MiB};
  std::size_t best = anchors[0];
  double best_dist = 1e300;
  for (std::size_t a : anchors) {
    const double dist = std::abs(std::log2(static_cast<double>(a)) -
                                 std::log2(static_cast<double>(bytes)));
    if (dist < best_dist) {
      best_dist = dist;
      best = a;
    }
  }
  return best;
}

inline std::string gb(double bps) { return util::Table::fixed(to_gbps(bps), 2); }
inline std::string pct(double frac) {
  return util::Table::fixed(100.0 * frac, 1) + "%";
}

}  // namespace mpath::bench
