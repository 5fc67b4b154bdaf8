// Fault injection + degradation-aware re-planning demo.
//
// Scenario 1: a large GPU0 -> GPU1 transfer is mid-flight on the Beluga-like
// node when the direct NVLink degrades to 10% of its capacity. The per-path
// watchdog notices the direct share missing its model-predicted deadline,
// cancels it, and the channel re-solves theta over the surviving staged
// paths for the undelivered remainder — the transfer completes with every
// byte intact instead of limping on the degraded link.
//
// Scenario 2: every egress link of GPU0 is severed outright. No path
// survives, so after the watchdogs fire the channel raises a typed
// gpusim::TransferError carrying partial-progress accounting.
//
// Build & run:  ./build/examples/fault_demo
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "mpath/benchcore/metrics.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/sim/fault.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

using namespace mpath;
using namespace mpath::util::literals;

namespace {

struct Node {
  topo::System sys;
  sim::Engine engine;
  sim::FluidNetwork net{engine};
  gpusim::GpuRuntime rt;
  pipeline::PipelineEngine pipe{rt};
  model::ModelRegistry reg;
  model::PathConfigurator cfg{reg};
  std::vector<topo::DeviceId> gpus;

  Node()
      : sys([] {
          auto s = topo::make_beluga();
          s.costs.jitter_rel = 0;  // deterministic demo output
          return s;
        }()),
        rt(sys, engine, net),
        reg(tuning::calibrate(sys)) {
    gpus = sys.topology.gpus();
  }
};

pipeline::ModelDrivenOptions recovery_options() {
  pipeline::ModelDrivenOptions opt;
  opt.recovery.enabled = true;
  opt.recovery.max_replans = 3;
  return opt;
}

void print_metrics(const benchcore::DegradedRunMetrics& m) {
  std::printf("  delivered        %s / %s (%.2f GB/s effective)\n",
              util::format_bytes(m.bytes_delivered).c_str(),
              util::format_bytes(m.bytes_requested).c_str(),
              util::to_gbps(m.delivered_bandwidth));
  std::printf("  path timeouts    %llu\n",
              static_cast<unsigned long long>(m.path_timeouts));
  std::printf("  re-plans         %llu\n",
              static_cast<unsigned long long>(m.replans));
  std::printf("  recovery latency %.3f ms\n", m.recovery_time_s * 1e3);
  std::printf("  outcome          %s\n",
              m.completed ? "completed" : "failed (TransferError)");
}

void scenario_degraded_nvlink() {
  std::printf("== Scenario 1: direct NVLink degrades to 10%% mid-flight ==\n");
  Node node;
  const auto g0 = node.gpus[0], g1 = node.gpus[1];
  constexpr std::size_t kBytes = 256_MiB;

  pipeline::ModelDrivenChannel ch(node.pipe, node.cfg,
                                  topo::PathPolicy::three_gpus(),
                                  recovery_options());

  gpusim::DeviceBuffer src(g0, kBytes), dst(g1, kBytes);
  src.fill_pattern(42);

  // Predicted healthy completion time; the fault lands at ~30% of it.
  const auto paths = topo::enumerate_paths(node.sys.topology, g0, g1,
                                           topo::PathPolicy::three_gpus());
  const double healthy_t =
      node.cfg.configure(g0, g1, kBytes, paths).predicted_time;

  sim::FaultInjector inj(node.engine, node.net);
  const topo::EdgeId nvlink = *node.sys.topology.direct_edge(g0, g1);
  inj.degrade_at(0.3 * healthy_t, node.rt.binding().link_for_edge(nvlink),
                 0.10);

  node.engine.spawn(
      [](gpusim::DataChannel& c, gpusim::DeviceBuffer& d,
         const gpusim::DeviceBuffer& s) -> sim::Task<void> {
        co_await c.transfer(d, 0, s, 0, kBytes);
      }(ch, dst, src),
      "xfer");
  node.engine.run();

  const auto m = benchcore::degraded_run_metrics(ch.recovery_stats(), kBytes,
                                                 kBytes, node.engine.now());
  std::printf("  payload intact   %s\n",
              dst.same_content(src) ? "yes" : "NO (bug!)");
  std::printf("  healthy estimate %.3f ms, actual %.3f ms\n", healthy_t * 1e3,
              node.engine.now() * 1e3);
  print_metrics(m);
  std::printf("  bytes by path    direct %s, gpu-staged %s, host-staged %s\n\n",
              util::format_bytes(node.pipe.bytes_on(topo::PathKind::Direct))
                  .c_str(),
              util::format_bytes(node.pipe.bytes_on(topo::PathKind::GpuStaged))
                  .c_str(),
              util::format_bytes(node.pipe.bytes_on(topo::PathKind::HostStaged))
                  .c_str());
}

void scenario_severed_gpu() {
  std::printf("== Scenario 2: every egress link of GPU0 severed ==\n");
  Node node;
  const auto g0 = node.gpus[0], g1 = node.gpus[1];
  constexpr std::size_t kBytes = 64_MiB;

  pipeline::ModelDrivenChannel ch(node.pipe, node.cfg,
                                  topo::PathPolicy::three_gpus(),
                                  recovery_options());

  gpusim::DeviceBuffer src(g0, kBytes), dst(g1, kBytes);
  src.fill_pattern(7);

  sim::FaultInjector inj(node.engine, node.net);
  for (const topo::Edge& e : node.sys.topology.edges()) {
    if (e.from == g0 && !e.is_memory_channel) {
      inj.sever_at(1e-4, node.rt.binding().link_for_edge(e.id));
    }
  }

  std::optional<gpusim::TransferError::Info> failure;
  std::string what;
  node.engine.spawn(
      [](gpusim::DataChannel& c, gpusim::DeviceBuffer& d,
         const gpusim::DeviceBuffer& s,
         std::optional<gpusim::TransferError::Info>& out,
         std::string& msg) -> sim::Task<void> {
        try {
          co_await c.transfer(d, 0, s, 0, kBytes);
        } catch (const gpusim::TransferError& err) {
          out = err.info();
          msg = err.what();
        }
      }(ch, dst, src, failure, what),
      "xfer");
  node.engine.run();

  if (!failure) {
    std::printf("  expected a TransferError but the transfer completed?!\n");
    return;
  }
  std::printf("  caught TransferError: %s\n", what.c_str());
  const auto m = benchcore::degraded_run_metrics(
      ch.recovery_stats(), failure->bytes_requested, failure->bytes_delivered,
      failure->elapsed_s);
  print_metrics(m);
  std::printf("  retries before giving up: %d\n", failure->retries);
}

}  // namespace

int main() {
  scenario_degraded_nvlink();
  scenario_severed_gpu();
  return 0;
}
