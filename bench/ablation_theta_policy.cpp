// ABL-2 — Ablation over the share-assignment policy:
//   * equal-time (Eq. 24)       — the paper's closed form,
//   * equal-split               — theta_i = 1/p regardless of path quality,
//   * bandwidth-proportional    — theta_i ~ 1/Omega_i (ignores Delta),
//   * direct-only               — single-path baseline.
// Expected: equal-time wins or ties everywhere; bandwidth-proportional is
// close at very large sizes (Delta amortizes, Eq. 8's intuition) but loses
// at small sizes where latency terms matter; equal-split overloads the
// host path whenever it is present.
#include <cstdio>

#include "bench_common.hpp"

namespace mb = mpath::bench;
namespace bc = mpath::benchcore;
namespace mm = mpath::model;
namespace mt = mpath::topo;
namespace mu = mpath::util;

namespace {

/// Static plan for a fixed assignment rule at one message size, starting
/// from the model's reference shares (paths and chunk counts).
mpath::pipeline::StaticPlan make_plan(const mm::TransferConfig& reference,
                                      const std::string& rule) {
  mpath::pipeline::StaticPlan plan = reference.paths;
  for (mm::PathShare& share : plan) share.chunks = std::max(1, share.chunks);
  if (rule == "equal-split") {
    for (mm::PathShare& share : plan) {
      share.theta = 1.0 / static_cast<double>(plan.size());
    }
  } else if (rule == "bw-proportional") {
    double sum = 0.0;
    for (mm::PathShare& share : plan) {
      share.theta = 1.0 / share.terms.omega;
      sum += share.theta;
    }
    for (mm::PathShare& share : plan) share.theta /= sum;
  } else {  // equal-time: keep the model's split
    // Guard against rounding dust.
    double total = 0.0;
    for (const mm::PathShare& share : plan) total += share.theta;
    for (mm::PathShare& share : plan) share.theta /= total;
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = mb::quick_mode(argc, argv);
  const int jobs = mb::jobs_mode(argc, argv);
  std::printf(
      "ABL-2: share-policy ablation (Beluga, 3_GPUs_w_host, BW)\n\n");

  mb::CalibratedSystem cal(mt::make_beluga());
  const auto gpus = cal.system.topology.gpus();
  const auto policy = mt::PathPolicy::three_gpus_with_host();
  const auto paths =
      mt::enumerate_paths(cal.system.topology, gpus[0], gpus[1], policy);
  const std::vector<std::string> rules{"equal-time", "bw-proportional",
                                       "equal-split", "direct-only"};
  const auto sizes = mb::message_sizes(quick);

  // Every (size, rule) cell derives its reference split from the pure
  // model read path and measures on a private stack.
  bc::SweepRunner runner(bc::SweepOptions{jobs});
  auto bws = runner.run(sizes.size() * rules.size(), [&](std::size_t idx) {
    const std::size_t bytes = sizes[idx / rules.size()];
    const auto& rule = rules[idx % rules.size()];
    bc::P2POptions p2p;
    p2p.iterations = 4;
    if (rule == "direct-only") {
      auto stack = bc::SimStack::direct(cal.system);
      return bc::measure_bw(stack.world(), bytes, p2p);
    }
    const mm::PathConfigurator configurator(cal.registry);
    const auto reference =
        configurator.compute_config(gpus[0], gpus[1], bytes, paths);
    auto plan = make_plan(reference, rule);
    auto stack = bc::SimStack::static_plan(cal.system, plan);
    return bc::measure_bw(stack.world(), bytes, p2p);
  });

  mu::CsvWriter csv(mb::results_dir() + "/ablation_theta_policy.csv");
  csv.header({"rule", "bytes", "gbps"});
  mu::Table table({"size", "equal-time", "bw-prop", "equal-split",
                   "direct-only"});
  std::size_t idx = 0;
  for (std::size_t bytes : sizes) {
    std::vector<std::string> row{mu::format_bytes(bytes)};
    for (const auto& rule : rules) {
      const double bw = bws[idx++];
      row.push_back(mb::gb(bw));
      csv.row({rule, std::to_string(bytes), mu::CsvWriter::num(bw)});
    }
    table.add_row(std::move(row));
  }
  csv.close();
  table.print();
  std::printf("\nCSV written to %s/ablation_theta_policy.csv\n",
              mb::results_dir().c_str());
  mb::report_sweep("ablation_theta_policy", runner.stats());
  return 0;
}
