// MULTI-TENANT — Joint planning under concurrent transfers: the node-level
// TransferScheduler's accuracy gate plus open-loop traffic throughput.
//
// Part 1 (the gate): K in {2, 4, 8} simultaneous same-pair transfers. A
// solo-planned stack (SchedulerOptions{.joint = false}, identical admission
// bookkeeping) believes each transfer owns the node, so its predicted
// completion is ~K× too fast; the joint water-fill sees the shared links.
// The bench fails (exit 1) unless the joint mean relative prediction error
// is at most one third of the solo baseline at every K.
//
// Part 2 (throughput): open-loop arrival processes — allreduce-style
// storms, Poisson, heavy-tail — replayed against the scheduled stack with
// mixed message sizes and random GPU pairs; reports transfers/s, aggregate
// bandwidth and both planners' prediction error.
//
// Part 3 (churn soak, MPATH_NIGHTLY_SOAK=1 only): the same traffic with
// recovery enabled while a seeded FaultInjector degrades/severs/restores
// busy links — every transfer must end accounted (completed or typed
// failure), with recovery re-plans going through the scheduler.
//
// Writes BENCH_pr6.json (override with --out=PATH or MPATH_BENCH_OUT).
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mpath/benchcore/traffic.hpp"
#include "mpath/sim/fault.hpp"

namespace mb = mpath::bench;
namespace bc = mpath::benchcore;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

std::string out_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a.rfind("--out=", 0) == 0) return a.substr(6);
  }
  if (const char* env = std::getenv("MPATH_BENCH_OUT")) return env;
  return "BENCH_pr6.json";
}

double mean_rel_error(const std::vector<mp::TransferScheduler::Record>& recs) {
  double sum = 0.0;
  int n = 0;
  for (const auto& r : recs) {
    if (!r.completed() || r.actual_s() <= 0.0) continue;
    sum += std::abs(r.predicted_s - r.actual_s()) / r.actual_s();
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

struct RunResult {
  bc::TrafficReport report;
  double error = 0.0;  ///< mean |predicted - simulated| / simulated
  mp::TransferScheduler::Stats sched;
  mp::RecoveryStats recovery;
};

/// One fresh scheduled stack, one replay. `joint=false` is the solo
/// ablation; `faults` (optional) seeds a random churn plan over the
/// GPU-to-GPU links before the replay starts.
RunResult run_scenario(const mb::CalibratedSystem& cal,
                       const std::vector<bc::Arrival>& arrivals, bool joint,
                       const mt::PathPolicy& policy, bool recovery,
                       const ms::FaultInjector::RandomPlanOptions* faults,
                       std::uint64_t fault_seed) {
  mm::PathConfigurator cfg(cal.registry);
  mp::SchedulerOptions sopt;
  sopt.joint = joint;
  bc::StackOptions stack_opt;
  if (recovery) {
    stack_opt.model.recovery.enabled = true;
  }
  auto stack = bc::SimStack::model_driven_scheduled(cal.system, cfg, policy,
                                                    sopt, stack_opt);
  ms::FaultInjector injector(stack.engine(), stack.network());
  if (faults != nullptr) {
    std::vector<ms::LinkId> links;
    const auto& topo = stack.system().topology;
    for (const auto& e : topo.edges()) {
      if (topo.device(e.from).kind == mt::DeviceKind::Gpu &&
          topo.device(e.to).kind == mt::DeviceKind::Gpu &&
          !e.is_memory_channel) {
        links.push_back(stack.runtime().binding().link_for_edge(e.id));
      }
    }
    injector.random_plan(links, *faults, fault_seed);
  }
  RunResult r;
  r.report = bc::run_traffic(stack, arrivals);
  r.error = mean_rel_error(stack.scheduler()->history());
  r.sched = stack.scheduler()->stats();
  r.recovery =
      static_cast<mp::ModelDrivenChannel&>(stack.channel()).recovery_stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = mb::quick_mode(argc, argv);
  const bool soak = [] {
    const char* env = std::getenv("MPATH_NIGHTLY_SOAK");
    return env != nullptr && std::string(env) == "1";
  }();
  std::printf("MULTI-TENANT: joint vs solo planning under concurrency\n\n");

  const mb::CalibratedSystem cal(mt::make_beluga());
  const auto gpus = cal.system.topology.gpus();
  std::ostringstream json;
  json.precision(6);
  json << "{\n  \"gate\": [\n";

  // -- Part 1: the K-transfer accuracy gate ------------------------------
  bool gate_failed = false;
  const std::vector<int> ks = {2, 4, 8};
  std::printf("%4s %14s %14s %10s %14s\n", "K", "joint err", "solo err",
              "ratio", "transfers/s");
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const int k = ks[i];
    std::vector<bc::Arrival> storm(
        static_cast<std::size_t>(k),
        bc::Arrival{0.0, gpus[0], gpus[1], 64_MiB});
    const RunResult joint = run_scenario(cal, storm, true,
                                         mt::PathPolicy::direct_only(), false,
                                         nullptr, 0);
    const RunResult solo = run_scenario(cal, storm, false,
                                        mt::PathPolicy::direct_only(), false,
                                        nullptr, 0);
    const double ratio =
        solo.error > 0.0 ? joint.error / solo.error : 0.0;
    std::printf("%4d %13.2f%% %13.2f%% %10.3f %14.0f\n", k,
                100.0 * joint.error, 100.0 * solo.error, ratio,
                joint.report.transfers_per_s);
    // Acceptance: joint error at most a third of the solo baseline.
    if (joint.error > solo.error / 3.0) {
      std::printf("::error::K=%d joint error %.2f%% exceeds a third of the "
                  "solo baseline %.2f%%\n",
                  k, 100.0 * joint.error, 100.0 * solo.error);
      gate_failed = true;
    }
    json << "    {\"k\": " << k << ", \"joint_error\": " << joint.error
         << ", \"solo_error\": " << solo.error << ", \"ratio\": " << ratio
         << ", \"transfers_per_s\": " << joint.report.transfers_per_s
         << ", \"aggregate_gbps\": "
         << mpath::util::to_gbps(joint.report.aggregate_bandwidth) << "}"
         << (i + 1 < ks.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"traffic\": [\n";

  // -- Part 2: open-loop traffic throughput -----------------------------
  const std::vector<bc::ArrivalPattern> patterns = {
      bc::ArrivalPattern::kStorm, bc::ArrivalPattern::kPoisson,
      bc::ArrivalPattern::kHeavyTail};
  std::printf("\n%12s %6s %12s %12s %14s %14s\n", "pattern", "n",
              "joint err", "solo err", "transfers/s", "agg GB/s");
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    bc::TrafficOptions opt;
    opt.pattern = patterns[i];
    opt.transfers = quick ? 16 : 64;
    opt.storm_width = 4;
    opt.mean_interarrival_s = 150e-6;
    opt.sizes = {4_MiB, 16_MiB, 64_MiB};
    opt.seed = 11 + i;
    const auto arrivals = bc::make_arrivals(cal.system.topology, opt);
    const RunResult joint = run_scenario(cal, arrivals, true,
                                         mt::PathPolicy::three_gpus(), false,
                                         nullptr, 0);
    const RunResult solo = run_scenario(cal, arrivals, false,
                                        mt::PathPolicy::three_gpus(), false,
                                        nullptr, 0);
    std::printf("%12s %6d %11.2f%% %11.2f%% %14.0f %14.2f\n",
                std::string(bc::to_string(opt.pattern)).c_str(),
                opt.transfers, 100.0 * joint.error, 100.0 * solo.error,
                joint.report.transfers_per_s,
                mpath::util::to_gbps(joint.report.aggregate_bandwidth));
    json << "    {\"pattern\": \"" << bc::to_string(opt.pattern)
         << "\", \"transfers\": " << opt.transfers
         << ", \"joint_error\": " << joint.error
         << ", \"solo_error\": " << solo.error
         << ", \"completed\": " << joint.report.completed
         << ", \"transfers_per_s\": " << joint.report.transfers_per_s
         << ", \"aggregate_gbps\": "
         << mpath::util::to_gbps(joint.report.aggregate_bandwidth) << "}"
         << (i + 1 < patterns.size() ? "," : "") << "\n";
  }
  json << "  ],\n";

  // -- Part 3: churn-under-load soak (nightly) ---------------------------
  if (soak) {
    bc::TrafficOptions opt;
    opt.pattern = bc::ArrivalPattern::kPoisson;
    opt.transfers = quick ? 32 : 200;
    opt.mean_interarrival_s = 200e-6;
    opt.sizes = {4_MiB, 16_MiB, 64_MiB};
    opt.seed = 29;
    const auto arrivals = bc::make_arrivals(cal.system.topology, opt);
    ms::FaultInjector::RandomPlanOptions faults;
    faults.start = 0.0;
    // Keep the fault window inside the arrival window so churn actually
    // overlaps traffic (the tail would otherwise flap idle links).
    faults.horizon = arrivals.back().t + 2e-3;
    faults.faults = quick ? 12 : 24;
    faults.min_factor = 0.0;
    faults.max_factor = 0.5;
    // Severs must outlive the 1 ms watchdog floor or recovery never fires.
    faults.sever_probability = 0.5;
    faults.restore_probability = 0.9;
    faults.min_duration = 5e-3;
    faults.max_duration = 20e-3;
    const RunResult r = run_scenario(cal, arrivals, true,
                                     mt::PathPolicy::three_gpus(), true,
                                     &faults, 97);
    const bool accounted =
        r.report.completed + r.report.failed == r.report.transfers;
    std::printf(
        "\nsoak: %d transfers, %d completed, %d failed, %llu timeouts, "
        "%llu replans, %llu recovered — %s\n",
        r.report.transfers, r.report.completed, r.report.failed,
        static_cast<unsigned long long>(r.recovery.path_timeouts),
        static_cast<unsigned long long>(r.recovery.replans),
        static_cast<unsigned long long>(r.recovery.transfers_recovered),
        accounted ? "all accounted" : "LOST TRANSFERS");
    if (!accounted) gate_failed = true;
    json << "  \"soak\": {\"transfers\": " << r.report.transfers
         << ", \"completed\": " << r.report.completed
         << ", \"failed\": " << r.report.failed
         << ", \"path_timeouts\": " << r.recovery.path_timeouts
         << ", \"replans\": " << r.recovery.replans
         << ", \"transfers_recovered\": " << r.recovery.transfers_recovered
         << ", \"scheduler_replans\": " << r.sched.replans
         << ", \"all_accounted\": " << (accounted ? "true" : "false")
         << "},\n";
  } else {
    json << "  \"soak\": null,\n";
  }

  json << "  \"gate_passed\": " << (gate_failed ? "false" : "true") << "\n}\n";
  const std::string path = out_path(argc, argv);
  mpath::util::write_file_atomic(path, json.str());
  std::printf("\nwrote %s\n", path.c_str());
  if (gate_failed) {
    std::printf("GATE FAILED\n");
    return 1;
  }
  std::printf("gate passed: joint error <= solo/3 at every K\n");
  return 0;
}
