#include "mpath/tuning/static_tuner.hpp"

#include <cmath>

#include "mpath/benchcore/omb.hpp"
#include "mpath/benchcore/stack.hpp"
#include "mpath/util/log.hpp"

namespace mpath::tuning {

namespace {
/// Enumerate all compositions (f_1, ..., f_n) with sum <= `remaining` on
/// the grid, appending each to `out`. Plain recursion — no std::function.
void enumerate_compositions(std::vector<int>& current, std::size_t idx,
                            int remaining,
                            std::vector<std::vector<int>>& out) {
  if (idx == current.size()) {
    out.push_back(current);
    return;
  }
  for (int v = 0; v <= remaining; ++v) {
    current[idx] = v;
    enumerate_compositions(current, idx + 1, remaining - v, out);
  }
}
}  // namespace

StaticTuner::StaticTuner(topo::System system, topo::PathPolicy policy,
                         StaticTunerOptions options)
    : system_(std::move(system)), policy_(policy), options_(std::move(options)) {
  const auto gpus = system_.topology.gpus();
  if (gpus.size() < 2) {
    throw std::invalid_argument("StaticTuner: need at least two GPUs");
  }
  paths_ = topo::enumerate_paths(system_.topology, gpus[0], gpus[1], policy_);
}

double StaticTuner::measure(const pipeline::StaticPlan& plan,
                            std::size_t bytes) const {
  benchcore::StackOptions stack_opt;
  stack_opt.seed = options_.seed;
  auto stack = benchcore::SimStack::static_plan(system_, plan, stack_opt);
  benchcore::P2POptions p2p;
  p2p.window = options_.window;
  p2p.iterations = options_.iterations;
  p2p.warmup = options_.warmup;
  return options_.metric == TuneMetric::Unidirectional
             ? benchcore::measure_bw(stack.world(), bytes, p2p)
             : benchcore::measure_bibw(stack.world(), bytes, p2p);
}

StaticTuneResult StaticTuner::tune(std::size_t bytes) {
  StaticTuneResult best;
  const std::size_t p = paths_.size();
  const int steps = grid_steps();
  // Enumerate all compositions (f_1, ..., f_{p-1}) of the staged shares on
  // the grid; the direct path takes the remainder (and must keep > 0).
  std::vector<std::vector<int>> compositions;
  std::vector<int> current(p - 1, 0);
  // Direct keeps at least one grid step.
  enumerate_compositions(current, 0, steps - 1, compositions);

  for (const auto& comp : compositions) {
    int staged_total = 0;
    for (int v : comp) staged_total += v;
    const int direct_share = steps - staged_total;
    const bool any_staged = staged_total > 0;
    for (int k : options_.chunk_grid) {
      pipeline::StaticPlan plan(p);
      for (std::size_t i = 0; i < p; ++i) {
        const int share = i == 0 ? direct_share : comp[i - 1];
        plan[i].plan = paths_[i];
        plan[i].theta =
            static_cast<double>(share) / static_cast<double>(steps);
        plan[i].chunks = i == 0 ? 1 : k;
      }
      const double bw = measure(plan, bytes);
      ++best.evaluated;
      if (bw > best.bandwidth_bps) {
        best.bandwidth_bps = bw;
        best.plan = std::move(plan);
      }
      // All-direct plans do not depend on k; skip redundant chunk points.
      if (!any_staged) break;
    }
  }
  MPATH_INFO << "StaticTuner(" << system_.topology.name() << ", "
             << policy_.label() << ", " << bytes << "B): best "
             << best.bandwidth_bps / 1e9 << " GB/s over " << best.evaluated
             << " candidates";
  return best;
}

int StaticTuner::grid_steps() const {
  return std::max(
      1, static_cast<int>(std::lround(1.0 / options_.fraction_step)));
}

}  // namespace mpath::tuning
