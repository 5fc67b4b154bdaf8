// OBS-OVH — google-benchmark microbenchmark backing the paper's claim that
// "the runtime overhead of the model-driven framework is negligible for
// large message sizes (less than 0.1% of the total execution time)".
//
// Measures populate_path_config (Algorithm 1) with a cold cache, a warm
// cache, and theta-solver / chunk-optimizer internals, and relates the
// cost to a 64 MB transfer time.
// PR 9 adds the build-vs-replay columns: BM_GraphColdBuild is the full
// per-transfer CPU path a cache miss pays (theta solve + config + template
// compile), BM_GraphReplay is what a cache hit pays instead (the keyed
// lookup). CI's replay-cost gate holds replay to <= 20% of the cold build
// at the same message size. BM_SchedulerAdmitDepart is the host cost of
// one joint admission plus one departure on a scheduler carrying about 50,
// 110 or 170 live paths (informational, no threshold).
#include <benchmark/benchmark.h>

#include <span>

#include "mpath/benchcore/metrics.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/pipeline/engine.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/rng.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;

namespace {

struct Setup {
  mt::System system = mt::make_beluga();
  mm::ModelRegistry registry = mpath::tuning::registry_from_topology(system);
  std::vector<mt::DeviceId> gpus = system.topology.gpus();
  std::vector<mt::PathPlan> paths = mt::enumerate_paths(
      system.topology, gpus[0], gpus[1],
      mt::PathPolicy::three_gpus_with_host());
};

Setup& setup() {
  static Setup s;
  return s;
}

}  // namespace

// Cache-miss cost of Algorithm 1: compute_config is exactly what
// configure() computes before it inserts the result.
static void BM_ConfigureColdCache(benchmark::State& state) {
  auto& s = setup();
  const mm::PathConfigurator cfg(s.registry);
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cfg.compute_config(s.gpus[0], s.gpus[1], bytes, s.paths));
  }
  // For the <0.1% claim: compare the reported ns/op against this transfer
  // time (a 46 GB/s single-lane transfer of the same size).
  state.counters["transfer_us"] = static_cast<double>(bytes) / 46e9 * 1e6;
}
BENCHMARK(BM_ConfigureColdCache)->Arg(2 << 20)->Arg(64 << 20)->Arg(512 << 20);

static void BM_ConfigureWarmCache(benchmark::State& state) {
  auto& s = setup();
  mm::PathConfigurator cfg(s.registry);
  (void)cfg.configure(s.gpus[0], s.gpus[1], 64 << 20, s.paths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cfg.configure(s.gpus[0], s.gpus[1], 64 << 20, s.paths));
  }
}
BENCHMARK(BM_ConfigureWarmCache);

static void BM_ThetaSolve(benchmark::State& state) {
  auto& s = setup();
  std::vector<mm::PathTerms> terms;
  for (const auto& plan : s.paths) {
    const auto params = s.registry.path_params(s.gpus[0], s.gpus[1], plan);
    terms.push_back(mm::terms_pipelined(
        params, mm::PhiFitter::fit_for_path(params, 64e6, 64e6, 0.25)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mm::ThetaSolver::solve(terms, 64e6));
  }
}
BENCHMARK(BM_ThetaSolve);

static void BM_PhiFit(benchmark::State& state) {
  auto& s = setup();
  const auto params = s.registry.path_params(s.gpus[0], s.gpus[1],
                                             s.paths[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mm::PhiFitter::fit_for_path(params, 64e6, 64e6, 0.25));
  }
}
BENCHMARK(BM_PhiFit);

namespace {

// Compile/replay need the pipeline stack (streams and events);
// the engine never advances — both paths are host-side only.
struct GraphSetup {
  mt::System system = [] {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{system, engine, net};
  mp::PipelineEngine pipe{rt, /*staging_buffers_per_device=*/16,
                          mg::Payload::Simulated};
  mm::ModelRegistry registry = mpath::tuning::registry_from_topology(system);
  std::vector<mt::DeviceId> gpus = system.topology.gpus();
  std::vector<mt::PathPlan> paths = mt::enumerate_paths(
      system.topology, gpus[0], gpus[1], mt::PathPolicy::three_gpus());
};

GraphSetup& graph_setup() {
  static GraphSetup s;
  return s;
}

}  // namespace

// Cache-miss cost: theta solve + TransferConfig + template compile (stream
// resolution, event reservation, op-DAG flattening). The graph is dropped
// each iteration so its events recycle.
static void BM_GraphColdBuild(benchmark::State& state) {
  auto& s = graph_setup();
  const mm::PathConfigurator cfg(s.registry);
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const mm::TransferConfig config =
        cfg.compute_config(s.gpus[0], s.gpus[1], bytes, s.paths);
    auto g = s.pipe.compile_graph(s.gpus[0], s.gpus[1], config);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GraphColdBuild)->Arg(2 << 20)->Arg(64 << 20);

// Cache-hit cost: the entire CPU-side work the replay fast path performs
// before issuing — keyed lookup (FNV hash + tuple compare + LRU splice).
// This is the number the <= 20%-of-cold-build gate holds.
static void BM_GraphReplay(benchmark::State& state) {
  auto& s = graph_setup();
  mm::PathConfigurator cfg(s.registry);
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  mp::GraphCache cache;
  const mm::TransferConfig config =
      cfg.compute_config(s.gpus[0], s.gpus[1], bytes, s.paths);
  cache.insert(s.pipe.compile_graph(s.gpus[0], s.gpus[1], config), 0);
  const std::span<const mt::PathPlan> key{s.paths.data(), s.paths.size()};
  for (auto _ : state) {
    auto g = cache.lookup(s.gpus[0], s.gpus[1], bytes, key, 0);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GraphReplay)->Arg(2 << 20)->Arg(64 << 20);

namespace {

// A scheduler that plans but never executes: no fluid flow is ever
// started, so admissions water-fill against the scheduler's own live paths
// only, and the simulated clock moves only when the bench advances it.
struct SchedulerSetup {
  mt::System system = [] {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{system, engine, net};
  mp::PipelineEngine pipe{rt, /*staging_buffers_per_device=*/16,
                          mg::Payload::Simulated};
  mm::ModelRegistry registry = mpath::tuning::registry_from_topology(system);
  mm::PathConfigurator cfg{registry};
  mp::TransferScheduler sched{pipe, cfg};
  struct Pair {
    mt::DeviceId src;
    mt::DeviceId dst;
    std::vector<mt::PathPlan> paths;
  };
  std::vector<Pair> pairs = [this] {
    std::vector<Pair> out;
    for (mt::DeviceId s : system.topology.gpus()) {
      for (mt::DeviceId d : system.topology.gpus()) {
        if (s == d) continue;
        out.push_back(
            {s, d,
             mt::enumerate_paths(system.topology, s, d,
                                 mt::PathPolicy::three_gpus())});
      }
    }
    return out;
  }();
};

}  // namespace

// Joint admission + departure: each iteration advances the clock 1 us,
// departs the oldest of range(0) live tickets (a water-fill) and admits a
// seeded 8-64 MiB transfer between a random GPU pair (a water-fill inside
// the joint Eq. 24 solve). At 1 us per iteration no path drains, so the
// water-fill sees every live ticket's carrying paths: about 3 per ticket,
// reported as live_flows.
static void BM_SchedulerAdmitDepart(benchmark::State& state) {
  SchedulerSetup s;
  mpath::util::Rng rng(42);
  struct Live {
    mp::TransferScheduler::TicketId id = mp::TransferScheduler::kInvalidTicket;
    std::size_t flows = 0;
  };
  std::size_t flows = 0;
  const auto admit = [&] {
    const auto& p = s.pairs[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(s.pairs.size()) - 1))];
    const auto bytes = std::uint64_t{8} << (20 + rng.uniform_int(0, 3));
    const auto adm = s.sched.admit(p.src, p.dst, bytes, p.paths);
    benchmark::DoNotOptimize(adm.config.predicted_time);
    Live out{adm.ticket, 0};
    for (const auto& share : adm.config.paths) out.flows += share.bytes > 0;
    flows += out.flows;
    return out;
  };
  std::vector<Live> ring(static_cast<std::size_t>(state.range(0)));
  for (Live& l : ring) l = admit();
  std::size_t oldest = 0;
  double seen = 0.0;
  for (auto _ : state) {
    s.engine.schedule_callback(s.engine.now() + 1e-6, [&] {
      s.sched.depart(ring[oldest].id);
      flows -= ring[oldest].flows;
      seen += static_cast<double>(flows);
      ring[oldest] = admit();
      oldest = (oldest + 1) % ring.size();
    });
    s.engine.run();
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["live_flows"] = seen / iters;
  state.counters["joint_iters_per_admit"] =
      static_cast<double>(s.sched.stats().joint_iterations) /
      static_cast<double>(s.sched.stats().admitted);
}
BENCHMARK(BM_SchedulerAdmitDepart)->Arg(17)->Arg(37)->Arg(57);

static void BM_PredictedBandwidth(benchmark::State& state) {
  auto& s = setup();
  mm::PathConfigurator cfg(s.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpath::benchcore::predicted_bandwidth(
        cfg, s.system.topology, s.gpus[0], s.gpus[1], 64 << 20,
        mt::PathPolicy::three_gpus()));
  }
}
BENCHMARK(BM_PredictedBandwidth);

BENCHMARK_MAIN();
