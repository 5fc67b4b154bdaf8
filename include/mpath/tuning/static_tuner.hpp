// Static path distribution by exhaustive offline search — the baseline the
// paper compares against ("chosen statically (offline), where the
// distribution strategy is extracted by exhaustive search, similar to
// [35]"). For one message size, every fraction composition on a grid and
// every chunk count in a grid is actually executed on a fresh simulation,
// and the best-measuring plan wins. This is exactly the cost the paper's
// analytical model exists to avoid.
#pragma once

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
};

struct StaticTuneResult {
  pipeline::StaticPlan plan;
  double bandwidth_bps = 0.0;  ///< best measured bandwidth
  int evaluated = 0;           ///< candidate configurations simulated
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

  topo::System system_;
  topo::PathPolicy policy_;
  StaticTunerOptions options_;
  std::vector<topo::PathPlan> paths_;
};

}  // namespace mpath::tuning
