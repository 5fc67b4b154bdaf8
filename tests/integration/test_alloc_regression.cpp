// Regression guard for the zero-allocation steady state: after one warmup
// round fills the event/flow/frame pools and container high-water marks, a
// second identical round of full-stack pipeline transfers must perform zero
// global operator-new calls. The same holds for monitored plans wider than
// four paths, for a stream queue thousands of ops deep, for transfers
// that a solo model-driven channel plans afresh, and for the
// scheduler's departure side: once its ledger and
// solver buffers have grown, a departure or a link-capacity change (each a
// water-fill over every live path) allocates nothing. A fresh stack built
// on a warm pool allocates no more than the pooled-record stream queue did.
// And the transport keeps no per-tag state: a round of messages on tags it
// has never seen allocates no more than one on reused tags, and the IPC
// handle a rendezvous opens on a receive buffer dies with that buffer.
//
// This binary deliberately lives in its own test target: it links
// mpath_alloc_hook, which replaces the global operator new/delete with
// counting versions, and that replacement must not leak into the other test
// executables.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mpath/benchcore/alloc_hook.hpp"
#include "mpath/benchcore/stack.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/engine.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/sim/pool.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/transport/fabric.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
namespace mx = mpath::transport;
using namespace mpath::util::literals;

namespace {

/// A plan share: the engine reads only its path, bytes and chunk count.
mm::PathShare path_share(mt::PathPlan path, std::uint64_t bytes, int chunks) {
  return {path, 0.0, bytes, chunks, 0.0, {}};
}

ms::Task<void> worker_loop(mp::PipelineEngine& pipe, mg::DeviceBuffer& dst,
                           const mg::DeviceBuffer& src, mt::DeviceId stage,
                           int repeats, bool monitored) {
  const std::array<mm::PathShare, 2> plan{
      path_share({mt::PathKind::Direct, mt::kInvalidDevice}, 2_MiB, 8),
      path_share({mt::PathKind::GpuStaged, stage}, 2_MiB, 8),
  };
  const std::array<mp::PathWatch, 2> watch{
      {{/*deadline_s=*/10.0}, {/*deadline_s=*/10.0}}};
  for (int r = 0; r < repeats; ++r) {
    (void)co_await pipe.execute(
        dst, 0, src, 0, plan,
        monitored ? std::span<const mp::PathWatch>(watch)
                  : std::span<const mp::PathWatch>());
  }
}

std::uint64_t steady_state_allocs(int workers, int repeats, bool monitored) {
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
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(gpus[w % n], 4_MiB,
                                                      mg::Payload::Simulated));
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
  engine.run();  // warmup: pools and capacities reach their high-water marks
  const mpath::benchcore::AllocScope scope;
  spawn_round();
  engine.run();
  return scope.delta();
}

/// Three rounds in which each of two workers runs one six-path transfer on
/// dgx (direct plus five GPU-staged paths, every path under a watchdog);
/// returns the allocations of the third. Each round's plans and watch
/// lists are built before it is counted: their storage is the caller's
/// choice, and this measures what the pipeline does with a plan wider than
/// four paths (its outcome, staging leases and watchdog state).
std::uint64_t six_path_monitored_allocs() {
  mt::System sys = mt::make_dgx_nvswitch();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                          mg::Payload::Simulated);
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  constexpr int kWorkers = 2;
  constexpr std::size_t kPaths = 6;
  struct Job {
    std::unique_ptr<mg::DeviceBuffer> src, dst;
    std::vector<mm::PathShare> plan;
    mp::PathWatchList watch;
    mp::TransferOutcome out;
  };
  std::vector<Job> jobs(kWorkers);
  const auto gpu = [&](std::size_t i) { return gpus[i % gpus.size()]; };
  for (std::size_t w = 0; w < kWorkers; ++w) {
    jobs[w].src = std::make_unique<mg::DeviceBuffer>(gpu(2 * w), 6_MiB,
                                                     mg::Payload::Simulated);
    jobs[w].dst = std::make_unique<mg::DeviceBuffer>(
        gpu(2 * w + 1), 6_MiB, mg::Payload::Simulated);
  }
  const auto round = [&] {
    for (std::size_t w = 0; w < kWorkers; ++w) {
      Job& job = jobs[w];
      job.plan = {
          path_share({mt::PathKind::Direct, mt::kInvalidDevice}, 1_MiB, 4)};
      for (std::size_t k = 1; k < kPaths; ++k) {
        job.plan.push_back(path_share(
            {mt::PathKind::GpuStaged, gpu(2 * w + 1 + k)}, 1_MiB, 4));
      }
      job.watch.clear();
      for (std::size_t k = 0; k < kPaths; ++k) {
        job.watch.push_back(mp::PathWatch{/*deadline_s=*/10.0});
      }
    }
    const mpath::benchcore::AllocScope scope;
    for (Job& job : jobs) {
      engine.spawn(
          [](mp::PipelineEngine& p, Job& j) -> ms::Task<void> {
            j.out = co_await p.execute(*j.dst, 0, *j.src, 0, j.plan, j.watch);
          }(pipe, job),
          "worker");
    }
    engine.run();
    const std::uint64_t allocs = scope.delta();
    for (const Job& job : jobs) {
      EXPECT_TRUE(job.out.complete);
      EXPECT_EQ(job.out.paths.size(), kPaths);
    }
    return allocs;
  };
  round();  // warmup: pools and capacities reach their high-water marks
  round();
  return round();
}

/// Two identical rounds of `ops` stream ops enqueued at once on one stream
/// (copies, delays, and record/wait pairs on one event) and drained.
/// Returns the allocations of the second round.
std::uint64_t deep_stream_round_allocs(int ops) {
  mt::System sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  mg::DeviceBuffer a(gpus[0], 64_KiB, mg::Payload::Simulated);
  mg::DeviceBuffer b(gpus[1], 64_KiB, mg::Payload::Simulated);
  const mg::StreamId s = rt.create_stream(gpus[0]);
  const mg::EventId ev = rt.create_event();
  std::uint64_t hooks = 0;
  const auto round = [&] {
    for (int i = 0; i < ops; ++i) {
      switch (i % 4) {
        case 0:
          rt.memcpy_async(b, 0, a, 0, 4_KiB, s, nullptr,
                          [&hooks](bool) { ++hooks; });
          break;
        case 1:
          rt.stream_delay(s, 1e-7);
          break;
        case 2:
          rt.record_event(ev, s);
          break;
        default:
          rt.wait_event(s, ev);
          break;
      }
    }
    engine.run();
  };
  round();  // warmup: pools and the stream's queue reach their high-water marks
  const mpath::benchcore::AllocScope scope;
  round();
  const std::uint64_t allocs = scope.delta();
  EXPECT_EQ(hooks, 2u * static_cast<std::uint64_t>((ops + 3) / 4));
  return allocs;
}

/// Build a fresh model-driven stack and run one 32 MiB transfer through
/// its channel, three times; returns the allocations of the third, when
/// the simulator pool has seen two stacks come and go.
std::uint64_t fresh_stack_allocs() {
  const mt::System sys = mt::make_beluga();
  const mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg(reg);
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  mg::DeviceBuffer src(gpus[0], 32_MiB, mg::Payload::Simulated);
  mg::DeviceBuffer dst(gpus[1], 32_MiB, mg::Payload::Simulated);
  const auto once = [&] {
    auto stack = mpath::benchcore::SimStack::model_driven(
        sys, cfg, mt::PathPolicy::three_gpus());
    stack.engine().spawn(stack.channel().transfer(dst, 0, src, 0, 32_MiB),
                         "transfer");
    stack.engine().run();
  };
  once();
  once();
  const mpath::benchcore::AllocScope scope;
  once();
  return scope.delta();
}

/// Three rounds in which each of `workers` workers runs `repeats` 4 MiB
/// transfers through one solo model-driven channel on beluga, without a
/// GraphCache; returns the allocations of the third. Every transfer plans
/// afresh and copies the configurator's cached config into its plan.
std::uint64_t solo_model_driven_allocs(int workers, int repeats) {
  mt::System sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                          mg::Payload::Simulated);
  const mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg(reg);
  mp::ModelDrivenChannel channel(pipe, cfg, mt::PathPolicy::three_gpus());
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  const int n = static_cast<int>(gpus.size());
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  for (int w = 0; w < workers; ++w) {
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(gpus[w % n], 4_MiB,
                                                      mg::Payload::Simulated));
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(
        gpus[(w + 1) % n], 4_MiB, mg::Payload::Simulated));
  }
  const auto round = [&] {
    for (int w = 0; w < workers; ++w) {
      engine.spawn(
          [](mp::ModelDrivenChannel& ch, mg::DeviceBuffer& dst,
             const mg::DeviceBuffer& src, int count) -> ms::Task<void> {
            for (int r = 0; r < count; ++r) {
              co_await ch.transfer(dst, 0, src, 0, 4_MiB);
            }
          }(channel, *bufs[2 * w + 1], *bufs[2 * w], repeats),
          "worker");
    }
    engine.run();
  };
  round();  // warmup: pools, caches and capacities reach their high-water
  round();  // marks
  const mpath::benchcore::AllocScope scope;
  round();
  return scope.delta();
}

/// Two identical cycles on a beluga scheduler: `tickets` admissions at one
/// instant over every GPU pair (3_GPUs candidates), then one departure every
/// 5 us with one link-capacity change halfway. Each departure and the
/// capacity change first water-fill every live path to the current instant.
/// Returns the allocations those calls made in the second cycle; admissions
/// are not counted.
std::uint64_t scheduled_departure_allocs(int tickets) {
  mt::System sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                          mg::Payload::Simulated);
  const mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg(reg);
  mp::TransferScheduler sched(pipe, cfg);
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  struct Pair {
    mt::DeviceId src;
    mt::DeviceId dst;
    std::vector<mt::PathPlan> paths;
  };
  std::vector<Pair> pairs;
  for (mt::DeviceId s : gpus) {
    for (mt::DeviceId d : gpus) {
      if (s == d) continue;
      pairs.push_back(
          {s, d,
           mt::enumerate_paths(sys.topology, s, d,
                               mt::PathPolicy::three_gpus())});
    }
  }
  const ms::LinkId link = rt.binding().link_for_edge(
      *sys.topology.direct_edge(gpus[0], gpus[1]));
  const double nominal = net.link(link).capacity_bps;

  std::vector<mp::TransferScheduler::TicketId> ids(
      static_cast<std::size_t>(tickets));
  std::uint64_t allocs = 0;
  const auto cycle = [&](double capacity) {
    for (int i = 0; i < tickets; ++i) {
      const Pair& p = pairs[static_cast<std::size_t>(i) % pairs.size()];
      // Sizes 1-32 MiB keep most paths streaming across all departures.
      ids[static_cast<std::size_t>(i)] =
          sched.admit(p.src, p.dst, 1_MiB << (i % 6), p.paths).ticket;
    }
    const double t0 = engine.now();
    for (int i = 0; i < tickets; ++i) {
      engine.schedule_callback(t0 + 5e-6 * (i + 1), [&, i] {
        const mpath::benchcore::AllocScope scope;
        sched.depart(ids[static_cast<std::size_t>(i)]);
        allocs += scope.delta();
      });
    }
    engine.schedule_callback(t0 + 5e-6 * (tickets / 2) + 2.5e-6, [&] {
      const mpath::benchcore::AllocScope scope;
      net.set_link_capacity(link, capacity);
      allocs += scope.delta();
    });
    engine.run();
  };
  cycle(0.5 * nominal);  // warmup: ledger and solver buffers reach size
  allocs = 0;
  cycle(nominal);
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_EQ(sched.stats().capacity_events, 2u);
  EXPECT_TRUE(sched.audit().empty());
  return allocs;
}

}  // namespace

TEST(AllocRegression, SteadyStateRoundIsAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers; "
                  "steady-state allocation counts are meaningless here";
#else
  ASSERT_TRUE(mpath::benchcore::alloc_hook_active());
  EXPECT_EQ(steady_state_allocs(/*workers=*/8, /*repeats=*/4,
                                /*monitored=*/false),
            0u);
#endif
}

TEST(AllocRegression, MonitoredSteadyStateRoundIsAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers";
#else
  EXPECT_EQ(steady_state_allocs(/*workers=*/8, /*repeats=*/4,
                                /*monitored=*/true),
            0u);
#endif
}

TEST(AllocRegression, SixPathMonitoredRunIsAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers";
#else
  EXPECT_EQ(six_path_monitored_allocs(), 0u);
#endif
}

TEST(AllocRegression, DeepStreamQueueRoundIsAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers";
#else
  EXPECT_EQ(deep_stream_round_allocs(/*ops=*/4096), 0u);
#endif
}

// A stack built on a warm pool, the way perfbench's osu-p2p and
// tenants-faulted build one or two per unit, takes its stream lanes and
// ring chunks from the pool. Building one and running a transfer allocates
// no more than with one pooled record per stream op: the bound is that
// design's count for this stack.
TEST(AllocRegression, FreshStackOnWarmPoolAllocatesNoMoreThanBefore) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers";
#else
  EXPECT_LE(fresh_stack_allocs(), 242u);
#endif
}

// A solo model-driven transfer copies its config out of the configurator's
// cache, since clear_cache() may run while it is in flight; the copy lands
// in share storage the channel keeps between transfers.
TEST(AllocRegression, SoloModelDrivenTransfersAreAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers";
#else
  EXPECT_EQ(solo_model_driven_allocs(/*workers=*/32, /*repeats=*/4), 0u);
#endif
}

TEST(AllocRegression, ScheduledDeparturesAreAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers";
#else
  EXPECT_EQ(scheduled_departure_allocs(/*tickets=*/64), 0u);
#endif
}

// One Fabric over a SinglePathChannel; a round is 32 rendezvous (1 MiB)
// send/recv pairs on consecutive tags. After two warm-up rounds on tags
// 0-31, a round on tags 1000-1031 must allocate what a round reusing 0-31
// does. Each recv is spawned right after its send and matches it, so the
// match queues never hold more than one entry and their block allocation
// does not drift between rounds.
TEST(AllocRegression, FreshTagsAllocateLikeReusedTags) {
  constexpr int kPairs = 32;
  mt::System sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                          mg::Payload::Simulated);
  mp::SinglePathChannel channel(pipe);
  mx::Fabric fabric(rt, channel);
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  fabric.add_worker(0, gpus[0]);
  fabric.add_worker(1, gpus[1]);
  mg::DeviceBuffer src(gpus[0], 1_MiB, mg::Payload::Simulated);
  mg::DeviceBuffer dst(gpus[1], 1_MiB, mg::Payload::Simulated);
  const auto round = [&](int first_tag) {
    const mpath::benchcore::AllocScope scope;
    for (int i = 0; i < kPairs; ++i) {
      engine.spawn(fabric.worker(0).send(1, src, 0, 1_MiB, first_tag + i),
                   "send");
      engine.spawn(fabric.worker(1).recv(0, dst, 0, 1_MiB, first_tag + i),
                   "recv");
    }
    engine.run();
    return scope.delta();
  };
  round(0);
  round(0);
  const std::uint64_t reused = round(0);
  EXPECT_EQ(round(1000), reused);
  EXPECT_EQ(fabric.rendezvous_count(), 4u * kPairs);
}

// One Fabric over a SinglePathChannel; a round is 32 rendezvous (1 MiB)
// messages, each into a receive buffer made for it and destroyed with the
// round. The sender opens an IPC handle on every receive buffer; the handle
// lives in the buffer, so after two warm-up rounds a third leaves live
// allocations exactly where they were.
TEST(AllocRegression, IpcHandlesDieWithTheirBuffers) {
  constexpr int kPairs = 32;
  mt::System sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                          mg::Payload::Simulated);
  mp::SinglePathChannel channel(pipe);
  mx::Fabric fabric(rt, channel);
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  fabric.add_worker(0, gpus[0]);
  fabric.add_worker(1, gpus[1]);
  mg::DeviceBuffer src(gpus[0], 1_MiB, mg::Payload::Simulated);
  const auto round = [&] {
    std::vector<std::unique_ptr<mg::DeviceBuffer>> dsts;
    for (int i = 0; i < kPairs; ++i) {
      dsts.push_back(std::make_unique<mg::DeviceBuffer>(
          gpus[1], 1_MiB, mg::Payload::Simulated));
      engine.spawn(fabric.worker(0).send(1, src, 0, 1_MiB, i), "send");
      engine.spawn(fabric.worker(1).recv(0, *dsts.back(), 0, 1_MiB, i),
                   "recv");
    }
    engine.run();
    for (const auto& d : dsts) EXPECT_TRUE(rt.ipc_cached(gpus[0], *d));
  };
  const auto live = [] {
    return mpath::benchcore::alloc_count() - mpath::benchcore::free_count();
  };
  round();
  round();
  const std::uint64_t before = live();
  round();
  EXPECT_EQ(live(), before);
  EXPECT_EQ(fabric.rendezvous_count(), 3u * kPairs);
}
