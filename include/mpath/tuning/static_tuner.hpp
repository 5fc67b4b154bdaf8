// Static path distribution by exhaustive offline search — the baseline the
// paper compares against ("chosen statically (offline), where the
// distribution strategy is extracted by exhaustive search, similar to
// [35]"). For one message size, every fraction composition on a grid and
// every chunk count in a grid is actually executed on a fresh simulation,
// and the best-measuring plan wins. This is exactly the cost the paper's
// analytical model exists to avoid.
#pragma once

#include <string>
#include <vector>

#include "mpath/pipeline/channels.hpp"
#include "mpath/topo/system.hpp"

namespace mpath::tuning {

enum class TuneMetric { Unidirectional, Bidirectional };

struct StaticTunerOptions {
  /// Fraction grid granularity (1/8 = 12.5% steps).
  double fraction_step = 0.125;
  /// Chunk counts tried for the staged paths (shared across them).
  std::vector<int> chunk_grid = {1, 2, 4, 8, 16, 32};
  TuneMetric metric = TuneMetric::Unidirectional;
  int window = 1;
  int iterations = 3;
  int warmup = 1;
  std::uint64_t seed = 7;
  /// When non-empty, tuning results are cached as CSV files under this
  /// directory and reused on repeat calls. A file's name carries every
  /// option above, so tuners that differ in any of them never share a plan.
  std::string cache_dir;
};

struct StaticTuneResult {
  pipeline::StaticPlan plan;
  double bandwidth_bps = 0.0;  ///< best measured bandwidth
  int evaluated = 0;           ///< candidate configurations simulated
  bool from_cache = false;
};

class StaticTuner {
 public:
  StaticTuner(topo::System system, topo::PathPolicy policy,
              StaticTunerOptions options = {});

  /// Exhaustively search the (theta grid x chunk grid) space for messages
  /// of `bytes` between GPUs src and dst (default: first two GPUs).
  [[nodiscard]] StaticTuneResult tune(std::size_t bytes);

  [[nodiscard]] const topo::PathPolicy& policy() const { return policy_; }

 private:
  [[nodiscard]] double measure(const pipeline::StaticPlan& plan,
                               std::size_t bytes) const;
  /// Shares of the fraction grid: 1 / fraction_step, rounded, at least 1.
  [[nodiscard]] int grid_steps() const;
  [[nodiscard]] std::string cache_path(std::size_t bytes) const;
  [[nodiscard]] bool load_cached(std::size_t bytes, StaticTuneResult& out) const;
  void store_cached(std::size_t bytes, const StaticTuneResult& result) const;

  topo::System system_;
  topo::PathPolicy policy_;
  StaticTunerOptions options_;
  std::vector<topo::PathPlan> paths_;
};

}  // namespace mpath::tuning
