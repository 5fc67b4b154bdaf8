// End-to-end churn through the pipeline engine: W concurrent workers each
// push a stream of multi-path chunked transfers (direct + GPU-staged) over
// a shared topology. Unlike BM_FluidSharedLinkChurn this pays the full
// stack — host issue costs, stream/event machinery, watchdog monitoring,
// fluid re-solves — so it measures what callback batching actually buys a
// collective-sized workload.
//
//   items_per_second    == transfers/s end to end
//   counters["events"]  == engine events processed per transfer (the
//                          batching win shows up here)
//   counters["resolves"]== fluid rate re-solves per transfer
//   counters["allocs_per_transfer"] == global operator-new calls per
//                          transfer in steady state (after one warmup
//                          round on the same stack) — 0 when the
//                          zero-allocation hot path holds
//
// PR 9 adds the compiled-graph columns and two maintenance modes:
//   BM_ChannelChurn/<W>/<graphs>  — the same churn pushed through
//       ModelDrivenChannel with compiled-plan replay off (0) or on (1);
//       counters break per-transfer work into compiles vs replays.
//   --graphs=on|off --fingerprint=FILE [--quick]
//       — skip google-benchmark and run a fixed deterministic transfer
//       sequence (jittered sim), writing every completion instant at full
//       precision to FILE. CI runs it once per mode and `cmp`s the files:
//       the compiled fast path must be bit-identical to the uncompiled one.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpath/benchcore/alloc_hook.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/engine.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

ms::Task<void> worker_loop(mp::PipelineEngine& pipe, mg::DeviceBuffer& dst,
                           const mg::DeviceBuffer& src, mt::DeviceId stage,
                           int repeats, bool monitored) {
  const std::array<mm::PathShare, 2> plan{{
      {{mt::PathKind::Direct, mt::kInvalidDevice}, 0.5, 2_MiB, 8, 0.0, {}},
      {{mt::PathKind::GpuStaged, stage}, 0.5, 2_MiB, 8, 0.0, {}},
  }};
  const std::array<mp::PathWatch, 2> watch{
      {{/*deadline_s=*/10.0}, {/*deadline_s=*/10.0}}};
  for (int r = 0; r < repeats; ++r) {
    (void)co_await pipe.execute(
        dst, 0, src, 0, plan,
        monitored ? std::span<const mp::PathWatch>(watch)
                  : std::span<const mp::PathWatch>());
  }
}

}  // namespace

// range(0) = concurrent workers, range(1) = whether paths run under
// (never-firing) watchdogs — the monitored variant is the recovery-enabled
// configuration, where per-chunk progress accounting used to cost extra
// events.
static void BM_PipelineChurn(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const bool monitored = state.range(1) != 0;
  const int repeats = 4;
  std::uint64_t transfers = 0, events = 0;
  ms::FluidNetwork::SolverStats last{};
  for (auto _ : state) {
    mt::System sys = mt::make_beluga();
    sys.costs.jitter_rel = 0;
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    mg::GpuRuntime rt(sys, engine, net);
    mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                            mg::Payload::Simulated);
    const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
    const int n = static_cast<int>(gpus.size());
    std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
    for (int w = 0; w < workers; ++w) {
      const mt::DeviceId s = gpus[w % n];
      const mt::DeviceId d = gpus[(w + 1) % n];
      const mt::DeviceId stage = gpus[(w + 2) % n];
      bufs.push_back(std::make_unique<mg::DeviceBuffer>(
          s, 4_MiB, mg::Payload::Simulated));
      bufs.push_back(std::make_unique<mg::DeviceBuffer>(
          d, 4_MiB, mg::Payload::Simulated));
      auto& src = *bufs[bufs.size() - 2];
      auto& dst = *bufs[bufs.size() - 1];
      engine.spawn(worker_loop(pipe, dst, src, stage, repeats, monitored),
                   "worker");
    }
    events += engine.run();
    transfers += static_cast<std::uint64_t>(workers) * repeats;
    last = net.stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(transfers));
  state.SetLabel(monitored ? "monitored" : "plain");
  state.counters["events"] =
      static_cast<double>(events) / static_cast<double>(transfers);
  state.counters["resolves"] = static_cast<double>(last.resolves) /
                               static_cast<double>(workers * repeats);

  // Steady-state allocation count, measured outside the timing loop: one
  // warmup round fills the event/flow/frame pools and the container
  // high-water marks, then a second round on the same stack is counted.
  {
    mt::System sys = mt::make_beluga();
    sys.costs.jitter_rel = 0;
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    mg::GpuRuntime rt(sys, engine, net);
    mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                            mg::Payload::Simulated);
    const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
    const int n = static_cast<int>(gpus.size());
    std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
    for (int w = 0; w < workers; ++w) {
      bufs.push_back(std::make_unique<mg::DeviceBuffer>(
          gpus[w % n], 4_MiB, mg::Payload::Simulated));
      bufs.push_back(std::make_unique<mg::DeviceBuffer>(
          gpus[(w + 1) % n], 4_MiB, mg::Payload::Simulated));
    }
    const auto spawn_round = [&] {
      for (int w = 0; w < workers; ++w) {
        engine.spawn(worker_loop(pipe, *bufs[2 * w + 1], *bufs[2 * w],
                                 gpus[(w + 2) % n], repeats, monitored),
                     "worker");
      }
    };
    spawn_round();
    engine.run();  // warmup: pools and capacities reach steady state
    const mpath::benchcore::AllocScope scope;
    spawn_round();
    engine.run();
    state.counters["allocs_per_transfer"] =
        static_cast<double>(scope.delta()) /
        static_cast<double>(workers * repeats);
  }
}
BENCHMARK(BM_PipelineChurn)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({32, 0})
    ->Args({32, 1});

namespace {

ms::Task<void> channel_loop(mp::ModelDrivenChannel& ch, mg::DeviceBuffer& dst,
                            const mg::DeviceBuffer& src, int repeats) {
  for (int r = 0; r < repeats; ++r) {
    co_await ch.transfer(dst, 0, src, 0, 4_MiB);
  }
}

}  // namespace

// The full model-driven stack under churn: every transfer pays candidate
// enumeration + theta (or a config-cache hit) + plan build + per-chunk
// setup — unless compiled replay (range(1) = 1) short-circuits all of it
// with a template hit. The compiles/replays counters show the build vs
// replay split; items_per_second is the headline win.
static void BM_ChannelChurn(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const bool graphs = state.range(1) != 0;
  const int repeats = 4;
  std::uint64_t transfers = 0;
  mp::GraphUseStats gs{};
  for (auto _ : state) {
    mt::System sys = mt::make_beluga();
    sys.costs.jitter_rel = 0;
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    mg::GpuRuntime rt(sys, engine, net);
    mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                            mg::Payload::Simulated);
    mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
    mm::PathConfigurator cfg(reg);
    mp::GraphCache cache;
    mp::ModelDrivenOptions opt;
    if (graphs) opt.graphs = &cache;
    mp::ModelDrivenChannel ch(pipe, cfg, mt::PathPolicy::three_gpus(), opt);
    const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
    const int n = static_cast<int>(gpus.size());
    std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
    for (int w = 0; w < workers; ++w) {
      bufs.push_back(std::make_unique<mg::DeviceBuffer>(
          gpus[w % n], 4_MiB, mg::Payload::Simulated));
      bufs.push_back(std::make_unique<mg::DeviceBuffer>(
          gpus[(w + 1) % n], 4_MiB, mg::Payload::Simulated));
      auto& src = *bufs[bufs.size() - 2];
      auto& dst = *bufs[bufs.size() - 1];
      engine.spawn(channel_loop(ch, dst, src, repeats), "channel-worker");
    }
    engine.run();
    transfers += static_cast<std::uint64_t>(workers) * repeats;
    const auto& g = ch.graph_stats();
    gs.compiles += g.compiles;
    gs.replays += g.replays;
    gs.replays_fresh += g.replays_fresh;
    gs.busy_fallbacks += g.busy_fallbacks;
    gs.health_fallbacks += g.health_fallbacks;
    gs.epoch_fallbacks += g.epoch_fallbacks;
    gs.contended_rejects += g.contended_rejects;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(transfers));
  state.SetLabel(graphs ? "graphs:on" : "graphs:off");
  const auto per = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(transfers);
  };
  state.counters["compiles_per_transfer"] = per(gs.compiles);
  state.counters["replays_per_transfer"] = per(gs.replays + gs.replays_fresh);
  // Per-cause fallback/reject columns (BENCH json and CSV): every reason a
  // template lookup bailed back to the uncompiled path, kept separate so a
  // regression in one gate is visible even when another dominates.
  state.counters["busy_fallbacks_per_transfer"] = per(gs.busy_fallbacks);
  state.counters["health_fallbacks_per_transfer"] = per(gs.health_fallbacks);
  state.counters["epoch_fallbacks_per_transfer"] = per(gs.epoch_fallbacks);
  state.counters["contended_rejects_per_transfer"] =
      per(gs.contended_rejects);
}
BENCHMARK(BM_ChannelChurn)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({32, 0})
    ->Args({32, 1});

namespace {

// --fingerprint mode: a fixed, seeded, *jittered* transfer sequence through
// one ModelDrivenChannel. The file records nothing mode-dependent — only
// per-transfer completion instants (%.17g: every bit of the double) and the
// final clock — so `cmp` between a --graphs=off and a --graphs=on run is
// exactly the "compiled replay is bit-identical" guarantee, end to end.
ms::Task<void> fingerprint_driver(ms::Engine& engine,
                                  mp::ModelDrivenChannel& ch,
                                  std::vector<mg::DeviceBuffer*> bufs,
                                  const std::vector<std::uint64_t>& sizes,
                                  int rounds, std::vector<double>& out) {
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p + 1 < bufs.size(); ++p) {
      for (const std::uint64_t bytes : sizes) {
        co_await ch.transfer(*bufs[p + 1], 0, *bufs[p], 0,
                             static_cast<std::size_t>(bytes));
        out.push_back(engine.now());
      }
    }
  }
}

int run_fingerprint(const std::string& path, bool graphs, bool quick) {
  mt::System sys = mt::make_beluga();
  sys.costs.jitter_rel = 0.02;  // jitter ON: identity must hold bit-for-bit
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/16,
                          mg::Payload::Simulated);
  mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg(reg);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opt;
  if (graphs) opt.graphs = &cache;
  mp::ModelDrivenChannel ch(pipe, cfg, mt::PathPolicy::three_gpus(), opt);

  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  std::vector<std::unique_ptr<mg::DeviceBuffer>> owned;
  std::vector<mg::DeviceBuffer*> chain;
  for (std::size_t i = 0; i < 3 && i < gpus.size(); ++i) {
    owned.push_back(std::make_unique<mg::DeviceBuffer>(
        gpus[i], 48_MiB, mg::Payload::Simulated));
    chain.push_back(owned.back().get());
  }
  // 128 KiB rides the direct small-message path; the rest are multi-path
  // and exercise compile-then-replay (sizes repeat across rounds).
  const std::vector<std::uint64_t> sizes = {128_KiB, 4_MiB, 16_MiB, 48_MiB};
  const int rounds = quick ? 2 : 6;
  std::vector<double> instants;
  engine.spawn(
      fingerprint_driver(engine, ch, chain, sizes, rounds, instants),
      "fingerprint");
  engine.run();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "pipeline_churn: cannot write %s\n", path.c_str());
    return 2;
  }
  std::fprintf(f, "# pipeline_churn completion fingerprint v1\n");
  for (std::size_t i = 0; i < instants.size(); ++i) {
    std::fprintf(f, "%zu %.17g\n", i, instants[i]);
  }
  std::fprintf(f, "final %.17g n=%zu\n", engine.now(), instants.size());
  std::fclose(f);

  // Mode-dependent diagnostics go to stderr, never into the fingerprint.
  const auto& g = ch.graph_stats();
  std::fprintf(stderr,
               "fingerprint: %zu transfers, graphs=%s, compiles=%llu "
               "replays=%llu fresh=%llu\n",
               instants.size(), graphs ? "on" : "off",
               static_cast<unsigned long long>(g.compiles),
               static_cast<unsigned long long>(g.replays),
               static_cast<unsigned long long>(g.replays_fresh));
  if (graphs && g.replays == 0) {
    std::fprintf(stderr,
                 "fingerprint: --graphs=on produced no replays; the fast "
                 "path was never exercised\n");
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fingerprint_path;
  bool graphs = false;
  bool quick = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--fingerprint=", 0) == 0) {
      fingerprint_path = a.substr(14);
    } else if (a == "--graphs=on") {
      graphs = true;
    } else if (a == "--graphs=off") {
      graphs = false;
    } else if (a == "--quick") {
      quick = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!fingerprint_path.empty()) {
    return run_fingerprint(fingerprint_path, graphs, quick);
  }
  int argc_rest = static_cast<int>(rest.size());
  benchmark::Initialize(&argc_rest, rest.data());
  if (benchmark::ReportUnrecognizedArguments(argc_rest, rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
