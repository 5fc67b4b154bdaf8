#include "mpath/tuning/calibration.hpp"

#include <span>
#include <utility>

#include "mpath/gpusim/runtime.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/engine.hpp"
#include "mpath/sim/fluid.hpp"
#include "mpath/transport/fabric.hpp"
#include "mpath/util/stats.hpp"

namespace mpath::tuning {

namespace {

/// Enumerate the ordered device pairs the model may ever need: every GPU
/// pair, plus GPU<->host both ways for every GPU/host combination.
std::vector<std::pair<topo::DeviceId, topo::DeviceId>> routes_to_measure(
    const topo::Topology& topo) {
  std::vector<std::pair<topo::DeviceId, topo::DeviceId>> out;
  const auto gpus = topo.gpus();
  for (auto a : gpus) {
    for (auto b : gpus) {
      if (a != b) out.emplace_back(a, b);
    }
  }
  for (auto g : gpus) {
    for (auto h : topo.hosts()) {
      // Skip unreachable host-ish transit devices (e.g. an NVSwitch node
      // modeled as Host without a memory channel is still routable; a
      // truly disconnected one throws and is skipped).
      try {
        (void)topo.route(g, h);
        (void)topo.route(h, g);
      } catch (const std::runtime_error&) {
        continue;
      }
      out.emplace_back(g, h);
      out.emplace_back(h, g);
    }
  }
  return out;
}

struct Probe {
  sim::Engine engine;
  sim::FluidNetwork network{engine};
  gpusim::GpuRuntime runtime;
  Probe(const topo::System& system, std::uint64_t seed)
      : runtime(system, engine, network, seed) {}
};

/// Time one isolated copy a->b of `bytes` on `stream`, a stream of `a`
/// that is idle between runs (median over `iters` runs).
double time_copy(Probe& probe, gpusim::StreamId stream, topo::DeviceId a,
                 topo::DeviceId b, std::size_t bytes, int iters) {
  std::vector<double> samples;
  for (int i = 0; i < iters; ++i) {
    gpusim::DeviceBuffer src(a, bytes, gpusim::Payload::Simulated);
    gpusim::DeviceBuffer dst(b, bytes, gpusim::Payload::Simulated);
    const double start = probe.engine.now();
    double finish = start;
    probe.runtime.memcpy_async(dst, 0, src, 0, bytes, stream);
    probe.engine.spawn(
        [](gpusim::GpuRuntime& rt, gpusim::StreamId s,
           double& out) -> sim::Task<void> {
          co_await rt.synchronize(s);
          out = rt.engine().now();
        }(probe.runtime, stream, finish),
        "calibration-copy");
    probe.engine.run();
    samples.push_back(finish - start);
  }
  return util::median(std::move(samples));
}

/// Time one staged transfer with k pipeline chunks through the real
/// engine. Used to extract the per-chunk overhead: T(k) is affine in k
/// (Eq. 13), so c = (T(k2) - T(k1)) / (k2 - k1) measures the full
/// per-chunk software cost (issue, events, staging sync).
double time_staged(Probe& probe, topo::DeviceId src, topo::DeviceId stage,
                   topo::DeviceId dst, topo::PathKind kind, std::size_t bytes,
                   int chunks) {
  pipeline::PipelineEngine engine(probe.runtime, 4,
                                  gpusim::Payload::Simulated);
  gpusim::DeviceBuffer s(src, bytes, gpusim::Payload::Simulated);
  gpusim::DeviceBuffer d(dst, bytes, gpusim::Payload::Simulated);
  const double start = probe.engine.now();
  double finish = start;
  probe.engine.spawn(
      [](pipeline::PipelineEngine& pe, gpusim::DeviceBuffer& dd,
         const gpusim::DeviceBuffer& ss, topo::PathKind k, topo::DeviceId st,
         int kc, double& out) -> sim::Task<void> {
        const model::PathShare share{topo::PathPlan{k, st}, 1.0, ss.size(),
                                     kc, 0.0, {}};
        (void)co_await pe.execute(dd, 0, ss, 0, std::span(&share, 1));
        out = pe.runtime().engine().now();
      }(engine, d, s, kind, stage, chunks, finish),
      "calibration-staged");
  probe.engine.run();
  return finish - start;
}

/// One rendezvous message through the full transport stack; with the raw
/// copy time of the same route subtracted this yields the per-message
/// protocol prefix (handshake, IPC lookup, issue) that every transfer
/// pays before data flows.
double time_transport_message(Probe& probe, topo::DeviceId a,
                              topo::DeviceId b, std::size_t bytes) {
  pipeline::PipelineEngine engine(probe.runtime, 4,
                                  gpusim::Payload::Simulated);
  pipeline::SinglePathChannel channel(engine);
  transport::Fabric fabric(probe.runtime, channel);
  fabric.add_worker(0, a);
  fabric.add_worker(1, b);
  gpusim::DeviceBuffer src(a, bytes, gpusim::Payload::Simulated);
  gpusim::DeviceBuffer dst(b, bytes, gpusim::Payload::Simulated);
  double best = 0.0;
  // Two rounds: the first opens the IPC handle, the second is steady state.
  for (int round = 0; round < 2; ++round) {
    const double start = probe.engine.now();
    double finish = start;
    probe.engine.spawn(fabric.worker(0).send(1, src, 0, bytes, round),
                       "calibration-send");
    probe.engine.spawn(
        [](transport::Worker& w, gpusim::DeviceBuffer& d, std::size_t n,
           int tag, gpusim::GpuRuntime& rt, double& out) -> sim::Task<void> {
          co_await w.recv(0, d, 0, n, tag);
          out = rt.engine().now();
        }(fabric.worker(1), dst, bytes, round, probe.runtime, finish),
        "calibration-recv");
    probe.engine.run();
    best = finish - start;
  }
  return best;
}

/// Event ping-pong: measures the per-chunk synchronization cost between a
/// producer and a consumer stream (record + cross-stream wait).
double time_sync_cycle(Probe& probe, topo::DeviceId a, topo::DeviceId b,
                       int cycles) {
  const auto sa = probe.runtime.create_stream(a);
  const auto sb = probe.runtime.create_stream(b);
  const double start = probe.engine.now();
  double finish = start;
  for (int i = 0; i < cycles; ++i) {
    const auto ev = probe.runtime.create_event();
    probe.runtime.record_event(ev, sa);
    probe.runtime.wait_event(sb, ev);
  }
  probe.engine.spawn(
      [](gpusim::GpuRuntime& rt, gpusim::StreamId s,
         double& out) -> sim::Task<void> {
        co_await rt.synchronize(s);
        out = rt.engine().now();
      }(probe.runtime, sb, finish),
      "calibration-sync");
  probe.engine.run();
  return (finish - start) / cycles;
}

}  // namespace

model::ModelRegistry calibrate(const topo::System& system,
                               const CalibrationOptions& options) {
  model::ModelRegistry reg(system.topology.name());
  Probe probe(system, options.seed);

  for (const auto& [a, b] : routes_to_measure(system.topology)) {
    model::HockneyFitter fitter;
    // One stream per route: each copy runs on it alone and drains, so it
    // times exactly what a fresh stream would.
    const auto stream = probe.runtime.create_stream(a);
    for (std::size_t bytes : options.sizes) {
      fitter.add_sample(
          static_cast<double>(bytes),
          time_copy(probe, stream, a, b, bytes, options.iterations));
    }
    reg.set_route_params(a, b, fitter.fit());
  }

  // Epsilon: extracted from the pipeline engine itself. T(k) is affine in
  // the chunk count (Eq. 13); the slope is the full per-chunk overhead c,
  // and in the equal-bandwidth staging case c = epsilon + alpha'
  // (Case 2 of Eq. 13), so epsilon = c - alpha' of the second hop.
  const auto gpus = system.topology.gpus();
  double sync = 0.0;
  if (gpus.size() >= 2) {
    sync = time_sync_cycle(probe, gpus[0], gpus[1], 64);
  }
  auto fitted_epsilon = [&](topo::PathKind kind, topo::DeviceId stage,
                            double fallback) {
    constexpr std::size_t kProbeBytes = 16u << 20;
    constexpr int kLo = 8, kHi = 32;
    const double t_lo = time_staged(probe, gpus[0], stage, gpus[1], kind,
                                    kProbeBytes, kLo);
    const double t_hi = time_staged(probe, gpus[0], stage, gpus[1], kind,
                                    kProbeBytes, kHi);
    const double per_chunk = (t_hi - t_lo) / (kHi - kLo);
    const double alpha_second = reg.route_params(stage, gpus[1]).alpha;
    const double eps = per_chunk - alpha_second;
    return eps > 0.5e-6 ? eps : fallback;
  };
  if (gpus.size() >= 3) {
    reg.set_epsilon(topo::PathKind::GpuStaged,
                    fitted_epsilon(topo::PathKind::GpuStaged, gpus[2],
                                   sync + system.costs.stage_sync_s));
  } else {
    reg.set_epsilon(topo::PathKind::GpuStaged,
                    sync + system.costs.stage_sync_s);
  }
  bool host_reachable = false;
  topo::DeviceId host = topo::kInvalidDevice;
  if (!system.topology.hosts().empty() && gpus.size() >= 2) {
    host = system.topology.nearest_host(gpus[0]);
    host_reachable = reg.has_route_params(gpus[0], host) &&
                     reg.has_route_params(host, gpus[1]);
  }
  if (host_reachable) {
    reg.set_epsilon(topo::PathKind::HostStaged,
                    fitted_epsilon(topo::PathKind::HostStaged, host,
                                   sync + system.costs.host_stage_sync_s));
  } else {
    reg.set_epsilon(topo::PathKind::HostStaged,
                    sync + system.costs.host_stage_sync_s);
  }
  // Host-side cost of kicking off one more path: roughly the ops issued
  // before the next path's first chunk can start.
  reg.set_issue_alpha(3.0 * system.costs.op_launch_s);

  // Per-message protocol prefix: a steady-state rendezvous message minus
  // the raw link time of the same route.
  if (gpus.size() >= 2) {
    constexpr std::size_t kProbeBytes = 256u << 10;
    const double through_stack =
        time_transport_message(probe, gpus[0], gpus[1], kProbeBytes);
    const double raw =
        reg.route_params(gpus[0], gpus[1]).time(kProbeBytes);
    const double prefix = through_stack - raw;
    reg.set_protocol_alpha(prefix > 0.0 ? prefix : 0.0);
  }

  // Contention-aware extension: measure each staged path's pipelined
  // end-to-end slope. Two sizes at a fixed chunk count give
  // Omega_eff = (T(n2) - T(n1)) / (n2 - n1), which reflects any resource
  // both hops share.
  if (options.contention_aware && gpus.size() >= 2) {
    constexpr std::size_t kN1 = 32u << 20;
    constexpr std::size_t kN2 = 128u << 20;
    constexpr int kChunks = 16;
    for (auto src : gpus) {
      for (auto dst : gpus) {
        if (src == dst) continue;
        const auto paths = topo::enumerate_paths(
            system.topology, src, dst,
            topo::PathPolicy::three_gpus_with_host());
        for (const auto& plan : paths) {
          if (plan.kind == topo::PathKind::Direct) continue;
          const double t1 = time_staged(probe, src, plan.stage, dst,
                                        plan.kind, kN1, kChunks);
          const double t2 = time_staged(probe, src, plan.stage, dst,
                                        plan.kind, kN2, kChunks);
          const double measured_slope =
              (t2 - t1) / static_cast<double>(kN2 - kN1);
          // Slope the hop composition predicts at the same fixed chunk
          // count (Eq. 13): 1/beta + 1/(k*beta') with the roles set by the
          // bottleneck case.
          const auto& first = reg.route_params(src, plan.stage);
          const auto& second = reg.route_params(plan.stage, dst);
          const double expected_slope =
              first.beta < second.beta
                  ? 1.0 / first.beta + 1.0 / (kChunks * second.beta)
                  : 1.0 / (kChunks * first.beta) + 1.0 / second.beta;
          const double factor = measured_slope / expected_slope;
          if (factor > 1.0) {
            reg.set_contention_factor(src, dst, plan, factor);
          }
        }
      }
    }
  }
  return reg;
}

model::ModelRegistry registry_from_topology(const topo::System& system) {
  model::ModelRegistry reg(system.topology.name());
  for (const auto& [a, b] : routes_to_measure(system.topology)) {
    const auto& route = system.topology.route(a, b);
    model::LinkParams lp;
    lp.beta = system.topology.route_capacity(route);
    lp.alpha = system.topology.route_latency(route) + system.costs.op_launch_s;
    reg.set_route_params(a, b, lp);
  }
  const double sync = system.costs.event_record_s + system.costs.event_wait_s;
  reg.set_epsilon(topo::PathKind::GpuStaged,
                  sync + system.costs.stage_sync_s);
  reg.set_epsilon(topo::PathKind::HostStaged,
                  sync + system.costs.host_stage_sync_s);
  reg.set_issue_alpha(3.0 * system.costs.op_launch_s);
  return reg;
}

}  // namespace mpath::tuning
