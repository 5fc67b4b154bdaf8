#include "mpath/tuning/static_tuner.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "mpath/benchcore/omb.hpp"
#include "mpath/benchcore/stack.hpp"
#include "mpath/util/fsio.hpp"
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
  if (load_cached(bytes, best)) {
    best.from_cache = true;
    return best;
  }

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
  store_cached(bytes, best);
  return best;
}

int StaticTuner::grid_steps() const {
  return std::max(
      1, static_cast<int>(std::lround(1.0 / options_.fraction_step)));
}

std::string StaticTuner::cache_path(std::size_t bytes) const {
  // Every option that can change the winning plan is in the name, so a
  // tuner with another grid or protocol never reads this one's plan.
  std::ostringstream name;
  name << "static_" << system_.topology.name() << "_" << policy_.label()
       << "_"
       << (options_.metric == TuneMetric::Unidirectional ? "bw" : "bibw")
       << "_w" << options_.window << "_it" << options_.iterations << "_wu"
       << options_.warmup << "_seed" << options_.seed << "_f"
       << grid_steps() << "_k";
  for (std::size_t i = 0; i < options_.chunk_grid.size(); ++i) {
    name << (i > 0 ? "-" : "") << options_.chunk_grid[i];
  }
  name << "_" << bytes << ".csv";
  return options_.cache_dir + "/" + name.str();
}

bool StaticTuner::load_cached(std::size_t bytes, StaticTuneResult& out) const {
  if (options_.cache_dir.empty()) return false;
  std::ifstream in(cache_path(bytes));
  if (!in) return false;
  StaticTuneResult result;
  result.plan.resize(paths_.size());
  std::string line;
  if (!std::getline(in, line)) return false;
  std::istringstream ss(line);
  std::string cell;
  if (!std::getline(ss, cell, ',')) return false;
  result.bandwidth_bps = std::stod(cell);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (!std::getline(ss, cell, ',')) return false;
    result.plan[i].plan = paths_[i];
    result.plan[i].theta = std::stod(cell);
  }
  for (model::PathShare& share : result.plan) {
    if (!std::getline(ss, cell, ',')) return false;
    share.chunks = std::stoi(cell);
  }
  out = std::move(result);
  return true;
}

void StaticTuner::store_cached(std::size_t bytes,
                               const StaticTuneResult& result) const {
  if (options_.cache_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.cache_dir, ec);
  std::ostringstream out;
  out.precision(17);  // full double round-trip
  out << result.bandwidth_bps;
  for (const model::PathShare& share : result.plan) out << "," << share.theta;
  for (const model::PathShare& share : result.plan) out << "," << share.chunks;
  out << "\n";
  // Atomic publication: a reader (or a parallel sweep worker tuning the
  // same point) either sees the complete line or no file at all.
  try {
    util::write_file_atomic(cache_path(bytes), out.str());
  } catch (const std::exception& e) {
    MPATH_WARN << "StaticTuner: cannot write cache " << cache_path(bytes)
               << ": " << e.what();
  }
}

}  // namespace mpath::tuning
