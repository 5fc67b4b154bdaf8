// FLAP RECOVERY — Learned link health as a gated benchmark.
//
// Part 1 (readmission gate): a back-to-back transfer stream over the
// model-driven channel; the direct link severs mid-stream and restores a
// few transfers later. With HealthOptions enabled the suspect path is
// excluded from the theta solve, probed with small slices, and readmitted
// once a probe delivers. The bench fails (exit 1) unless the post-restore
// stream recovers at least 80% of its pre-fault per-transfer throughput
// within a bounded window (8 transfers), with at least one readmission.
//
// Part 2 (recalibration gate): the direct link silently runs at 40% of its
// fitted bandwidth. A static-model stack keeps mispredicting forever; a
// stack with a Recalibrator publishing alpha/beta corrections must end
// with strictly lower prediction error over the second half of the stream.
//
// Part 3 (flap soak, MPATH_NIGHTLY_SOAK=1 only): open-loop traffic with
// health + recovery enabled while scripted flap cycles and a seeded random
// fault plan churn the busy links — every transfer must end accounted
// (completed or typed failure).
//
// Writes BENCH_pr7.json (override with --out=PATH or MPATH_BENCH_OUT).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mpath/benchcore/traffic.hpp"
#include "mpath/model/calibration_store.hpp"
#include "mpath/model/recalibrator.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/health.hpp"
#include "mpath/sim/fault.hpp"

namespace mb = mpath::bench;
namespace bc = mpath::benchcore;
namespace mg = mpath::gpusim;
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
  return "BENCH_pr7.json";
}

/// One deterministic single-channel stack (zero jitter so the gates
/// measure policy, not noise).
struct Stack {
  mt::System sys;
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt;
  mp::PipelineEngine pipe;
  mm::ModelRegistry reg;
  mm::PathConfigurator cfg;
  std::vector<mt::DeviceId> gpus;

  Stack()
      : sys([] {
          auto s = mt::make_beluga();
          s.costs.jitter_rel = 0;
          return s;
        }()),
        rt(sys, engine, net),
        pipe(rt),
        reg(mpath::tuning::calibrate(sys)),
        cfg(reg),
        gpus(sys.topology.gpus()) {}

  [[nodiscard]] ms::LinkId direct_link(mt::DeviceId a, mt::DeviceId b) const {
    return rt.binding().link_for_edge(*sys.topology.direct_edge(a, b));
  }
};

double mean(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  if (hi <= lo || hi > v.size()) return 0.0;
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
         static_cast<double>(hi - lo);
}

// -- Part 1: sever/restore readmission ---------------------------------------

struct ReadmissionRun {
  std::vector<double> bw;       ///< per-transfer delivered bytes/s
  std::vector<double> start_t;  ///< per-transfer start (sim clock)
  double restore_t = 0.0;
  mp::HealthStats health;
  mp::RecoveryStats recovery;
};

constexpr int kPreFault = 6;       ///< healthy transfers before the sever
constexpr int kTotal = 24;         ///< total transfers in the stream
constexpr double kDownFor = 6e-3;  ///< sever duration (sim seconds)
constexpr std::size_t kXferBytes = 16_MiB;

ReadmissionRun run_readmission(bool health_on) {
  Stack s;
  mp::ModelDrivenOptions opts;
  opts.recovery.enabled = true;
  opts.recovery.max_replans = 3;
  opts.health.enabled = health_on;
  // Bound the readmission window: a path killed by failed probes while the
  // link is down retries quickly once capacity returns.
  opts.health.dead_cooldown_s = 2e-3;
  mp::ModelDrivenChannel ch(s.pipe, s.cfg, mt::PathPolicy::three_gpus(),
                            opts);
  const auto link = s.direct_link(s.gpus[0], s.gpus[1]);
  const double base_cap = s.net.link(link).capacity_bps;

  ReadmissionRun r;
  s.engine.spawn(
      [](Stack& st, mp::ModelDrivenChannel& c, ms::LinkId l, double cap,
         ReadmissionRun& out) -> ms::Task<void> {
        for (int i = 0; i < kTotal; ++i) {
          if (i == kPreFault) {
            st.net.set_link_capacity(l, 0.0);
            const double now = st.engine.now();
            st.engine.schedule_callback(now + kDownFor, [&st, l, cap, &out] {
              st.net.set_link_capacity(l, cap);
              out.restore_t = st.engine.now();
            });
          }
          mg::DeviceBuffer src(st.gpus[0], kXferBytes);
          mg::DeviceBuffer dst(st.gpus[1], kXferBytes);
          src.fill_pattern(static_cast<std::uint8_t>(40 + i));
          const double t0 = st.engine.now();
          out.start_t.push_back(t0);
          co_await c.transfer(dst, 0, src, 0, kXferBytes);
          out.bw.push_back(static_cast<double>(kXferBytes) /
                           (st.engine.now() - t0));
        }
      }(s, ch, link, base_cap, r),
      "stream");
  s.engine.run();
  r.health = ch.health().stats();
  r.recovery = ch.recovery_stats();
  return r;
}

// -- Part 2: drifted-link recalibration --------------------------------------

constexpr int kDriftTransfers = 20;
constexpr std::size_t kDriftBytes = 32_MiB;

/// Mean relative prediction error over the second half of the stream.
double run_drift(bool recalibrate, std::vector<double>* all_errors) {
  Stack s;
  const auto link = s.direct_link(s.gpus[0], s.gpus[1]);
  s.net.set_link_capacity(link, 0.4 * s.net.link(link).capacity_bps);

  mm::CalibrationStore store;
  mm::Recalibrator recal(store);
  mp::ModelDrivenOptions opts;
  if (recalibrate) {
    s.cfg.set_calibration(&store);
    opts.recalibrator = &recal;
  }
  mp::ModelDrivenChannel ch(s.pipe, s.cfg, mt::PathPolicy::three_gpus(),
                            opts);

  std::vector<double> errors;
  s.engine.spawn(
      [](Stack& st, mp::ModelDrivenChannel& c,
         std::vector<double>& errs) -> ms::Task<void> {
        const std::vector<mt::PathPlan> paths = mt::enumerate_paths(
            st.rt.topology(), st.gpus[0], st.gpus[1], c.policy());
        for (int i = 0; i < kDriftTransfers; ++i) {
          mg::DeviceBuffer src(st.gpus[0], kDriftBytes);
          mg::DeviceBuffer dst(st.gpus[1], kDriftBytes);
          src.fill_pattern(static_cast<std::uint8_t>(60 + i));
          // The channel plans under the calibration snapshot current when
          // the transfer starts, so this is the prediction it runs.
          const double predicted =
              st.cfg.compute_config(st.gpus[0], st.gpus[1], kDriftBytes, paths)
                  .predicted_time;
          const double t0 = st.engine.now();
          co_await c.transfer(dst, 0, src, 0, kDriftBytes);
          const double actual = st.engine.now() - t0;
          errs.push_back(std::abs(actual - predicted) / actual);
        }
      }(s, ch, errors),
      "drift");
  s.engine.run();
  if (all_errors != nullptr) *all_errors = errors;
  return mean(errors, errors.size() / 2, errors.size());
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = mb::quick_mode(argc, argv);
  const bool soak = [] {
    const char* env = std::getenv("MPATH_NIGHTLY_SOAK");
    return env != nullptr && std::string(env) == "1";
  }();
  std::printf("FLAP RECOVERY: probation/readmission and online "
              "recalibration gates\n\n");
  bool gate_failed = false;
  std::ostringstream json;
  json.precision(6);

  // -- Part 1: readmission recovers the pre-fault throughput -------------
  const ReadmissionRun health = run_readmission(true);
  const ReadmissionRun legacy = run_readmission(false);
  const double baseline = mean(health.bw, 1, kPreFault);  // skip warmup
  std::size_t first_post = health.bw.size();
  for (std::size_t i = 0; i < health.start_t.size(); ++i) {
    if (health.restore_t > 0.0 && health.start_t[i] >= health.restore_t) {
      first_post = i;
      break;
    }
  }
  constexpr std::size_t kWindow = 8;  // bounded recovery window
  double recovered_bw = 0.0;
  std::size_t recovered_after = kWindow + 1;
  for (std::size_t i = first_post;
       i < health.bw.size() && i < first_post + kWindow; ++i) {
    if (health.bw[i] >= 0.8 * baseline) {
      recovered_bw = health.bw[i];
      recovered_after = i - first_post + 1;
      break;
    }
  }
  const double tail =
      mean(health.bw, health.bw.size() - 5, health.bw.size());
  const bool readmitted = health.health.readmissions >= 1;
  const bool recovered =
      recovered_after <= kWindow && tail >= 0.8 * baseline && readmitted;
  std::printf("readmission: baseline %.2f GB/s, recovered to %.2f GB/s "
              "after %zu post-restore transfer(s), tail %.2f GB/s\n",
              mb::to_gbps(baseline), mb::to_gbps(recovered_bw),
              recovered_after, mb::to_gbps(tail));
  std::printf("  health: %llu timeouts, %llu probes (%llu ok), "
              "%llu readmissions | legacy timeouts %llu\n",
              static_cast<unsigned long long>(health.health.timeouts),
              static_cast<unsigned long long>(health.health.probes_launched),
              static_cast<unsigned long long>(
                  health.health.probes_succeeded),
              static_cast<unsigned long long>(health.health.readmissions),
              static_cast<unsigned long long>(legacy.recovery.path_timeouts));
  if (!recovered) {
    std::printf("::error::readmission gate: post-restore throughput did not "
                "recover to 80%% of baseline within %zu transfers\n",
                kWindow);
    gate_failed = true;
  }
  json << "{\n  \"readmission\": {\"baseline_gbps\": "
       << mb::to_gbps(baseline)
       << ", \"tail_gbps\": " << mb::to_gbps(tail)
       << ", \"recovered_after\": " << recovered_after
       << ", \"window\": " << kWindow
       << ", \"readmissions\": " << health.health.readmissions
       << ", \"probes_launched\": " << health.health.probes_launched
       << ", \"probes_succeeded\": " << health.health.probes_succeeded
       << ", \"health_timeouts\": " << health.health.timeouts
       << ", \"legacy_timeouts\": " << legacy.recovery.path_timeouts
       << ", \"passed\": " << (recovered ? "true" : "false") << "},\n";

  // -- Part 2: recalibration beats the static model on a drifted link ----
  std::vector<double> static_errors, recal_errors;
  const double static_err = run_drift(false, &static_errors);
  const double recal_err = run_drift(true, &recal_errors);
  std::printf("\ndrift: static error %.2f%%, recalibrated error %.2f%% "
              "(second half of %d transfers)\n",
              100.0 * static_err, 100.0 * recal_err, kDriftTransfers);
  if (!(recal_err < static_err)) {
    std::printf("::error::drift gate: recalibrated error %.2f%% is not "
                "below the static model's %.2f%%\n",
                100.0 * recal_err, 100.0 * static_err);
    gate_failed = true;
  }
  json << "  \"drift\": {\"static_error\": " << static_err
       << ", \"recalibrated_error\": " << recal_err
       << ", \"first_error\": "
       << (static_errors.empty() ? 0.0 : static_errors.front())
       << ", \"last_error\": "
       << (recal_errors.empty() ? 0.0 : recal_errors.back())
       << ", \"passed\": " << (recal_err < static_err ? "true" : "false")
       << "},\n";

  // -- Part 3: flap soak under open-loop traffic (nightly) ---------------
  if (soak) {
    mb::CalibratedSystem cal(mt::make_beluga());
    bc::TrafficOptions topt;
    topt.pattern = bc::ArrivalPattern::kPoisson;
    topt.transfers = quick ? 32 : 150;
    topt.mean_interarrival_s = 200e-6;
    topt.sizes = {4_MiB, 16_MiB, 64_MiB};
    topt.seed = 31;
    const auto arrivals = bc::make_arrivals(cal.system.topology, topt);
    bc::StackOptions sopt;
    sopt.model.recovery.enabled = true;
    sopt.model.health.enabled = true;
    auto stack = bc::SimStack::model_driven(
        cal.system, *cal.configurator, mt::PathPolicy::three_gpus(), sopt);
    ms::FaultInjector inj(stack.engine(), stack.network());
    const auto& topo = stack.system().topology;
    const auto gpus = topo.gpus();
    // Scripted flap cycles on the two busiest links, long enough to
    // outlive the 1 ms watchdog floor, plus seeded random churn on top.
    const auto l01 = stack.runtime().binding().link_for_edge(
        *topo.direct_edge(gpus[0], gpus[1]));
    const auto l23 = stack.runtime().binding().link_for_edge(
        *topo.direct_edge(gpus[2], gpus[3]));
    inj.flap(l01, 1e-3, 5e-3, 4e-3, 3);
    inj.flap(l23, 2e-3, 5e-3, 4e-3, 3);
    std::vector<ms::LinkId> links;
    for (const auto& e : topo.edges()) {
      if (topo.device(e.from).kind == mt::DeviceKind::Gpu &&
          topo.device(e.to).kind == mt::DeviceKind::Gpu &&
          !e.is_memory_channel) {
        links.push_back(stack.runtime().binding().link_for_edge(e.id));
      }
    }
    ms::FaultInjector::RandomPlanOptions fopt;
    fopt.horizon = arrivals.back().t + 2e-3;
    fopt.faults = quick ? 8 : 16;
    fopt.sever_probability = 0.5;
    fopt.min_duration = 5e-3;
    fopt.max_duration = 20e-3;
    inj.random_plan(links, fopt, 83);
    const auto report = bc::run_traffic(stack, arrivals);
    auto& ch = static_cast<mp::ModelDrivenChannel&>(stack.channel());
    const bool accounted =
        report.completed + report.failed == report.transfers;
    std::printf(
        "\nsoak: %d transfers, %d completed, %d failed, %llu readmissions, "
        "%llu probes — %s\n",
        report.transfers, report.completed, report.failed,
        static_cast<unsigned long long>(ch.health().stats().readmissions),
        static_cast<unsigned long long>(
            ch.health().stats().probes_launched),
        accounted ? "all accounted" : "LOST TRANSFERS");
    if (!accounted) gate_failed = true;
    json << "  \"soak\": {\"transfers\": " << report.transfers
         << ", \"completed\": " << report.completed
         << ", \"failed\": " << report.failed
         << ", \"readmissions\": " << ch.health().stats().readmissions
         << ", \"probes_launched\": " << ch.health().stats().probes_launched
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
  std::printf("gate passed: readmission recovers >= 80%% of baseline; "
              "recalibration beats the static model\n");
  return 0;
}
