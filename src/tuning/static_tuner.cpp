#include "mpath/tuning/static_tuner.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "mpath/benchcore/omb.hpp"
#include "mpath/benchcore/stack.hpp"
#include "mpath/util/fsio.hpp"
#include "mpath/util/log.hpp"

namespace mpath::tuning {

namespace {
/// The whole of `cell` as a T; false if any of it does not parse.
template <class T>
bool parse_cell(std::string_view cell, T& value) {
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

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
  const std::string path = cache_path(bytes);
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return false;
  // One line, as store_cached writes it: the bandwidth, each path's
  // fraction, then each path's chunk count. A line that reads otherwise,
  // or whose plan StaticPlanChannel would refuse, is a miss, and tune()
  // overwrites it.
  std::vector<std::string_view> cells;
  for (std::string_view rest = line;;) {
    const std::size_t comma = rest.find(',');
    cells.push_back(rest.substr(0, comma));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  const std::size_t p = paths_.size();
  StaticTuneResult result;
  result.plan.resize(p);
  bool ok = cells.size() == 1 + 2 * p &&
            parse_cell(cells[0], result.bandwidth_bps) &&
            result.bandwidth_bps >= 0.0;
  for (std::size_t i = 0; ok && i < p; ++i) {
    model::PathShare& share = result.plan[i];
    share.plan = paths_[i];
    ok = parse_cell(cells[1 + i], share.theta) &&
         parse_cell(cells[1 + p + i], share.chunks);
  }
  if (!ok || pipeline::static_plan_error(result.plan) != nullptr) {
    MPATH_WARN << "StaticTuner: ignoring corrupt cache " << path;
    return false;
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
