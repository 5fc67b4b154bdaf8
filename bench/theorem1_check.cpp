// ABL-3 — Empirical validation of Theorem 1: the equal-time split is
// optimal. Two levels:
//   (1) model level: for calibrated path terms on both systems, a dense
//       theta grid never beats the closed-form solution (Eq. 24);
//   (2) simulation level: executing theta perturbations around the model's
//       split on the simulator shows the measured optimum at the equal-time
//       point.
// Exits 1 when either level disagrees: a grid point beats the closed form,
// or a perturbation measures faster than the model's split.
#include <cstdio>

#include "bench_common.hpp"

namespace mb = mpath::bench;
namespace bc = mpath::benchcore;
namespace mm = mpath::model;
namespace mt = mpath::topo;
namespace mu = mpath::util;
using namespace mpath::util::literals;

int main(int argc, char** argv) {
  const bool quick = mb::quick_mode(argc, argv);
  std::printf("ABL-3: Theorem 1 (equal-time split optimality) check\n\n");

  // ---- (1) model-level grid check ----------------------------------------
  std::printf("(1) closed form vs dense theta grid (model level)\n");
  mu::Table grid_table({"system", "size", "closed-form T", "grid-best T",
                        "closed <= grid"});
  bool grid_beaten = false;
  for (const char* system_name : {"beluga", "narval"}) {
    mb::CalibratedSystem cal(mt::make_system(system_name));
    const auto gpus = cal.system.topology.gpus();
    const auto paths =
        mt::enumerate_paths(cal.system.topology, gpus[0], gpus[1],
                            mt::PathPolicy::three_gpus());
    std::vector<mm::PathTerms> terms;
    for (const auto& plan : paths) {
      const auto params = cal.registry.path_params(gpus[0], gpus[1], plan);
      const auto phi = mm::PhiFitter::fit_for_path(params, 64_MiB, 64_MiB,
                                                   1.0 / 3.0);
      terms.push_back(mm::terms_pipelined(params, phi));
    }
    for (std::size_t bytes : mb::message_sizes(quick)) {
      const double n = static_cast<double>(bytes);
      const auto sol = mm::ThetaSolver::solve(terms, n);
      const int steps = 100;
      double grid_best = 1e300;
      for (int i = 0; i <= steps; ++i) {
        for (int j = 0; i + j <= steps; ++j) {
          const double t0 = static_cast<double>(i) / steps;
          const double t1 = static_cast<double>(j) / steps;
          std::vector<double> theta{t0, t1, 1.0 - t0 - t1};
          grid_best =
              std::min(grid_best, mm::ThetaSolver::evaluate(terms, theta, n));
        }
      }
      const bool closed_wins = sol.predicted_time <= grid_best * (1.0 + 1e-9);
      grid_beaten = grid_beaten || !closed_wins;
      grid_table.add_row(
          {system_name, mu::format_bytes(bytes),
           mu::format_time(sol.predicted_time), mu::format_time(grid_best),
           closed_wins ? "yes" : "NO"});
    }
  }
  grid_table.print();

  // ---- (2) simulation-level perturbation check ---------------------------
  std::printf(
      "\n(2) measured bandwidth at theta perturbations around the model "
      "split (Beluga, 3_GPUs, 128MB)\n");
  mb::CalibratedSystem beluga(mt::make_beluga());
  const auto gpus = beluga.system.topology.gpus();
  const auto policy = mt::PathPolicy::three_gpus();
  const auto paths =
      mt::enumerate_paths(beluga.system.topology, gpus[0], gpus[1], policy);
  const std::size_t bytes = 128_MiB;
  const auto& config =
      beluga.configurator->configure(gpus[0], gpus[1], bytes, paths);

  mu::Table sim_table({"shift of staged share", "measured GB/s"});
  double center_bw = 0.0;
  double best_bw = 0.0;
  double best_shift = 0.0;
  for (double shift : {-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2}) {
    // Move `shift` of the whole message from the staged paths (evenly)
    // onto the direct path (negative: the reverse), starting from the
    // model's shares.
    mpath::pipeline::StaticPlan plan = config.paths;
    plan[0].chunks = 1;
    double staged_total = 0.0;
    for (std::size_t i = 1; i < plan.size(); ++i) {
      staged_total += config.paths[i].theta;
    }
    double sum = 0.0;
    for (std::size_t i = 1; i < plan.size(); ++i) {
      const double scale = staged_total > 0
                               ? config.paths[i].theta / staged_total
                               : 0.0;
      plan[i].theta = std::max(0.0, config.paths[i].theta - shift * scale);
      plan[i].chunks = std::max(1, config.paths[i].chunks);
      sum += plan[i].theta;
    }
    plan[0].theta = std::max(0.0, 1.0 - sum);
    // Renormalize exactly.
    double total = 0.0;
    for (const mm::PathShare& share : plan) total += share.theta;
    for (mm::PathShare& share : plan) share.theta /= total;

    auto stack = bc::SimStack::static_plan(beluga.system, plan);
    bc::P2POptions p2p;
    p2p.iterations = 4;
    const double bw = bc::measure_bw(stack.world(), bytes, p2p);
    if (shift == 0.0) center_bw = bw;
    if (bw > best_bw) {
      best_bw = bw;
      best_shift = shift;
    }
    sim_table.add_row({mu::Table::fixed(shift, 2), mb::gb(bw)});
  }
  sim_table.print();
  std::printf(
      "\nmodel split measured %.2f GB/s; best perturbation %.2f GB/s at "
      "shift %+.2f (equal-time split within %.1f%% of measured optimum)\n",
      mpath::util::to_gbps(center_bw), mpath::util::to_gbps(best_bw),
      best_shift, 100.0 * (best_bw - center_bw) / best_bw);
  if (grid_beaten || best_shift != 0.0) {
    std::printf("::error::Theorem 1 check failed: %s\n",
                grid_beaten ? "a theta grid point beats the closed form"
                            : "a perturbed split measures faster");
    return 1;
  }
  return 0;
}
