// Infrastructure microbenchmark: event throughput of the discrete-event
// engine, the cost of fluid-network rate recomputation and of one jitter
// draw. Not a paper figure — it documents that the substrate is fast
// enough for the exhaustive static-tuning baseline to be practical.
//
// The fluid benchmarks report the incremental solver's re-solves: every
// flow start and every timestamp's batch of completions re-solves the
// dirty component in place, so a lockstep burst of k starts costs k solves.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "mpath/sim/fluid.hpp"
#include "mpath/sim/sync.hpp"
#include "mpath/util/rng.hpp"

namespace ms = mpath::sim;

static void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    ms::Engine engine;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      engine.schedule_callback(1e-6 * i, [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(100000);

// Same-instant work: eight interleaved chains in which every event queues
// the next at now(), so all of it runs at t = 0 and every insert appends.
static void BM_EngineSameInstantChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  struct Link {
    ms::Engine* engine;
    int* left;
    void operator()() const {
      if (--*left > 0) engine->schedule_callback(engine->now(), *this);
    }
  };
  std::uint64_t events = 0;
  for (auto _ : state) {
    ms::Engine engine;
    int left = n;
    for (int c = 0; c < 8; ++c) {
      engine.schedule_callback(engine.now(), Link{&engine, &left});
    }
    events += engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineSameInstantChain)->Arg(1000)->Arg(100000);

// The hold model: `depth` events stay queued, and each one, when it runs,
// queues its successor an exponentially distributed time ahead (mean 1), so
// inserts land at random ranks of the sorted ring and shift up to half of
// it. Increments come from a precomputed table, keeping the RNG out of the
// timing. Depth 16 is near the mean queue of most end-to-end workloads and
// 256 near the deepest any reached (295, perfbench tenants-faulted, while
// finished runs' watchdogs still stayed queued); 4,096 shows the cost
// where a ring's linear shifts lose to a heap's log-depth sifts.
static void BM_EngineRandomHold(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  constexpr int kHolds = 100000;  ///< successors queued per iteration
  std::vector<double> steps(4096);
  mpath::util::Rng rng(11);
  for (double& dt : steps) dt = -std::log(1.0 - rng.uniform(0.0, 1.0));
  struct Hold {
    ms::Engine* engine;
    const std::vector<double>* steps;
    std::size_t* next;
    int* left;
    void operator()() const {
      if (--*left < 0) return;
      const double dt = (*steps)[(*next)++ & (steps->size() - 1)];
      engine->schedule_callback(engine->now() + dt, *this);
    }
  };
  ms::Engine engine;
  std::size_t next = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    int left = kHolds;
    const Hold hold{&engine, &steps, &next, &left};
    for (int i = 0; i < depth; ++i) {
      const double dt = steps[next++ & (steps.size() - 1)];
      engine.schedule_callback(engine.now() + dt, hold);
    }
    events += engine.run();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineRandomHold)->Arg(16)->Arg(256)->Arg(4096);

// One jitter draw at sigma 0.02: every modeled op (copy launch, event record
// and wait, host chunk issue) scales its cost by one.
static void BM_RngJitter(benchmark::State& state) {
  mpath::util::Rng rng(7);
  double sigma = 0.02;
  benchmark::DoNotOptimize(sigma);
  for (auto _ : state) benchmark::DoNotOptimize(rng.jitter(sigma));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngJitter);

// The same draws as GpuRuntime takes them, from a util::JitterStream: one
// batch fill per 256 draws (per 2,048 past the first 4,096), then one scale
// and clamp per draw. Back to back, as here, the draws outrun the filler
// thread, so this mostly times the fills the stream does itself, and it
// reads slower per draw than BM_RngJitter. The batches pay off in the
// simulator, where each draw sits between events and the filler keeps
// ahead (DESIGN.md, "Jitter stream").
static void BM_JitterStream(benchmark::State& state) {
  mpath::util::JitterStream stream(7);
  double sigma = 0.02;
  benchmark::DoNotOptimize(sigma);
  for (auto _ : state) benchmark::DoNotOptimize(stream.next(sigma));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JitterStream);

static void BM_CoroutineSpawnJoin(benchmark::State& state) {
  for (auto _ : state) {
    ms::Engine engine;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      engine.spawn([](ms::Engine& e) -> ms::Task<void> {
        co_await e.delay(1e-6);
      }(engine));
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutineSpawnJoin)->Arg(1000)->Arg(10000);

// Long-lived concurrent flows over a small ring of shared links: measures
// the steady-state cost of completions re-solving rates.
static void BM_FluidConcurrentFlows(benchmark::State& state) {
  std::uint64_t flows_done = 0;
  ms::FluidNetwork::SolverStats last{};
  for (auto _ : state) {
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    const int nlinks = 8;
    std::vector<ms::LinkId> links;
    for (int l = 0; l < nlinks; ++l) {
      links.push_back(net.add_link({"l", 1e9, 1e-6}));
    }
    const int flows = static_cast<int>(state.range(0));
    for (int f = 0; f < flows; ++f) {
      std::vector<ms::LinkId> route{links[f % nlinks],
                                    links[(f + 1) % nlinks]};
      engine.spawn([](ms::FluidNetwork& n, std::vector<ms::LinkId> r,
                      double bytes) -> ms::Task<void> {
        co_await n.transfer(std::move(r), bytes);
      }(net, route, 1e6 * (1 + f % 7)));
    }
    benchmark::DoNotOptimize(engine.run());
    flows_done += static_cast<std::uint64_t>(flows);
    last = net.stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows_done));
  state.counters["resolves"] = static_cast<double>(last.resolves);
}
BENCHMARK(BM_FluidConcurrentFlows)->Arg(16)->Arg(128)->Arg(256);

// Pipeline-style churn on a shared-link topology: W workers each push a
// stream of C chunks through {shared hub, private spoke}. The workers run
// in lockstep, so chunk completions land in same-timestamp bursts that
// share one re-solve, while each worker's next start re-solves on its own.
// items_per_second == flows (chunks) per second.
static void BM_FluidSharedLinkChurn(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int chunks = 64;
  std::uint64_t flows_done = 0;
  ms::FluidNetwork::SolverStats last{};
  for (auto _ : state) {
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    const auto hub = net.add_link({"hub", 64e9, 0.0});
    std::vector<ms::LinkId> spokes;
    for (int w = 0; w < workers; ++w) {
      spokes.push_back(net.add_link({"spoke", 2e9, 0.0}));
    }
    for (int w = 0; w < workers; ++w) {
      engine.spawn([](ms::FluidNetwork& n, ms::LinkId h, ms::LinkId s,
                      int c) -> ms::Task<void> {
        for (int i = 0; i < c; ++i) {
          std::vector<ms::LinkId> route{h, s};
          co_await n.transfer(std::move(route), 1e6);
        }
      }(net, hub, spokes[w], chunks));
    }
    benchmark::DoNotOptimize(engine.run());
    flows_done += static_cast<std::uint64_t>(workers) * chunks;
    last = net.stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows_done));
  state.counters["resolves"] = static_cast<double>(last.resolves);
}
BENCHMARK(BM_FluidSharedLinkChurn)->Arg(16)->Arg(64)->Arg(256);

// Disjoint worker pairs (no shared hub): the incremental solver re-solves
// only the two-link component a chunk touches, however many workers run.
// This isolates the dirty-component win.
static void BM_FluidDisjointChurn(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int chunks = 64;
  std::uint64_t flows_done = 0;
  ms::FluidNetwork::SolverStats last{};
  for (auto _ : state) {
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    std::vector<ms::LinkId> a, b;
    for (int w = 0; w < workers; ++w) {
      a.push_back(net.add_link({"a", 2e9, 0.0}));
      b.push_back(net.add_link({"b", 2e9, 0.0}));
    }
    for (int w = 0; w < workers; ++w) {
      engine.spawn([](ms::FluidNetwork& n, ms::LinkId la, ms::LinkId lb,
                      int c, int w_) -> ms::Task<void> {
        for (int i = 0; i < c; ++i) {
          std::vector<ms::LinkId> route{la, lb};
          co_await n.transfer(std::move(route), 1e6 * (1 + (w_ + i) % 7));
        }
      }(net, a[w], b[w], chunks, w));
    }
    benchmark::DoNotOptimize(engine.run());
    flows_done += static_cast<std::uint64_t>(workers) * chunks;
    last = net.stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows_done));
  state.counters["resolves"] = static_cast<double>(last.resolves);
}
BENCHMARK(BM_FluidDisjointChurn)->Arg(64)->Arg(256);

BENCHMARK_MAIN();
