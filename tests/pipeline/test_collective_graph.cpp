// Collective graph chaining (PR 10): capture/seal/replay lifecycle of
// chains across the four chained collectives, bit-identical replay
// timelines under jitter on unscheduled, scheduled and recovery stacks, one
// chain per payload, per-step replay admission with a clean ledger on
// scheduled stacks, capacity-epoch invalidation with recapture, recovery
// of chained steps across a severed link, and event-reservation accounting
// across chain destruction, on a one-buffer staging pool too. Nightly
// fault-churn soaks ride along behind MPATH_NIGHTLY_SOAK=1.
#include "mpath/pipeline/collective_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <vector>

#include "mpath/benchcore/stack.hpp"
#include "mpath/mpisim/collectives.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/sim/fault.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

namespace bc = mpath::benchcore;
namespace mg = mpath::gpusim;
namespace mi = mpath::mpisim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

mt::System beluga(double jitter_rel) {
  auto s = mt::make_beluga();
  s.costs.jitter_rel = jitter_rel;
  return s;
}

enum class Coll { AllreduceRhd, AlltoallBruck, AllgatherRing, BcastBinomial };

/// One invocation of `c` with `bytes` total payload per rank.
ms::Task<void> run_once(mi::Communicator& comm, Coll c, std::size_t bytes) {
  const auto p = static_cast<std::size_t>(comm.size());
  switch (c) {
    case Coll::AllreduceRhd: {
      const std::size_t floats = bytes / sizeof(float) / p * p;
      mg::DeviceBuffer data(comm.device(), floats * sizeof(float),
                            mg::Payload::Simulated);
      co_await mi::allreduce_sum(comm, data,
                                 mi::AllreduceAlgo::RecursiveHalvingDoubling);
      break;
    }
    case Coll::AlltoallBruck: {
      const std::size_t blk = bytes / p;
      mg::DeviceBuffer send(comm.device(), p * blk, mg::Payload::Simulated);
      mg::DeviceBuffer recv(comm.device(), p * blk, mg::Payload::Simulated);
      co_await mi::alltoall(comm, send, recv, blk, mi::AlltoallAlgo::Bruck);
      break;
    }
    case Coll::AllgatherRing: {
      const std::size_t blk = bytes / p;
      mg::DeviceBuffer data(comm.device(), p * blk, mg::Payload::Simulated);
      co_await mi::allgather(comm, data, blk);
      break;
    }
    case Coll::BcastBinomial: {
      mg::DeviceBuffer data(comm.device(), bytes, mg::Payload::Simulated);
      co_await mi::broadcast(comm, data, bytes, 0);
      break;
    }
  }
}

/// A fresh chained model-driven stack (its own registry + configurator, so
/// two fixtures with the same inputs are deterministically identical).
struct ChainFixture {
  mt::System sys;
  mm::ModelRegistry reg;
  mm::PathConfigurator cfg;
  bc::SimStack stack;

  static bc::StackOptions chained(bool on) {
    bc::StackOptions o;
    o.collective_graphs = on;
    return o;
  }

  explicit ChainFixture(double jitter_rel = 0.0, bool graphs = true,
                        bc::StackOptions opt_base = chained(true))
      : sys(beluga(jitter_rel)),
        reg(mpath::tuning::registry_from_topology(sys)),
        cfg(reg),
        stack([&] {
          bc::StackOptions opt = opt_base;
          opt.collective_graphs = graphs;
          return bc::SimStack::model_driven(sys, cfg,
                                            mt::PathPolicy::three_gpus(), opt);
        }()) {}

  void iterate(Coll c, std::size_t bytes, int iters) {
    for (int i = 0; i < iters; ++i) {
      stack.world().run([&](mi::Communicator& comm) -> ms::Task<void> {
        co_await run_once(comm, c, bytes);
      });
    }
  }
};

/// A fresh *scheduled* stack, chained unless `chained` is false. With the
/// default 2 ranks, allreduce rounds use directed-disjoint links, so
/// replayed steps admit; with 4, steps contend for links.
struct SchedFixture {
  mt::System sys;
  mm::ModelRegistry reg;
  mm::PathConfigurator cfg;
  bc::SimStack stack;

  explicit SchedFixture(bool chained = true, double jitter_rel = 0.0,
                        int nranks = 2)
      : sys(beluga(jitter_rel)),
        reg(mpath::tuning::registry_from_topology(sys)),
        cfg(reg),
        stack([&] {
          bc::StackOptions opt;
          opt.collective_graphs = chained;
          opt.nranks = nranks;
          return bc::SimStack::model_driven_scheduled(
              sys, cfg, mt::PathPolicy::two_gpus(), {}, opt);
        }()) {}

  void iterate(Coll c, std::size_t bytes, int iters) {
    for (int i = 0; i < iters; ++i) {
      stack.world().run([&](mi::Communicator& comm) -> ms::Task<void> {
        co_await run_once(comm, c, bytes);
      });
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Capture lifecycle
// ---------------------------------------------------------------------------

TEST(ChainCapture, CapturesOnceThenReplaysEveryCollective) {
  // Per-iteration chained step counts on 4 ranks: rhd = 2x log2(4) rounds
  // of 4 messages (16), bruck = log2(4) rounds of 4 (8), ring allgather =
  // 3 rounds of 4 (12), binomial bcast = p - 1 messages (3).
  const struct {
    Coll c;
    std::uint64_t steps_per_iter;
  } cases[] = {{Coll::AllreduceRhd, 16},
               {Coll::AlltoallBruck, 8},
               {Coll::AllgatherRing, 12},
               {Coll::BcastBinomial, 3}};
  for (const auto& [c, steps_per_iter] : cases) {
    ChainFixture f;
    f.iterate(c, 8_MiB, 3);
    const mp::ChainStats st = f.stack.chain()->stats();
    EXPECT_EQ(st.captures, 1u);
    EXPECT_EQ(st.iterations_captured, 1u);
    EXPECT_EQ(st.iterations_replayed, 2u);
    EXPECT_EQ(st.replayed_steps, 2 * steps_per_iter);
    EXPECT_EQ(st.passthrough_steps, 0u);
    EXPECT_EQ(st.capture_aborts, 0u);
    EXPECT_EQ(st.mismatch_kills, 0u);
    EXPECT_EQ(st.busy_fallbacks, 0u);
    EXPECT_EQ(f.stack.chain()->cache_size(), 1u);
  }
}

TEST(ChainCapture, DistinctCollectivesGetDistinctChains) {
  ChainFixture f;
  f.iterate(Coll::AllreduceRhd, 8_MiB, 2);
  f.iterate(Coll::BcastBinomial, 8_MiB, 2);
  const mp::ChainStats st = f.stack.chain()->stats();
  EXPECT_EQ(st.captures, 2u);
  EXPECT_EQ(st.iterations_replayed, 2u);
  EXPECT_EQ(f.stack.chain()->cache_size(), 2u);
  // Returning to the first collective replays its resident chain — no
  // recapture, the cache holds both.
  f.iterate(Coll::AllreduceRhd, 8_MiB, 1);
  EXPECT_EQ(f.stack.chain()->stats().captures, 2u);
  EXPECT_EQ(f.stack.chain()->stats().iterations_replayed, 3u);
}

// ---------------------------------------------------------------------------
// Replay identity
// ---------------------------------------------------------------------------

// The tentpole invariant end to end: with jitter ON (the factory default),
// chained replay must be bit-identical in simulated time to the same
// collective on an identically seeded stack with chaining off — replay
// issues the same runtime-call/issue-cost sequence, so it consumes the
// same rng draws.
TEST(ChainReplay, TimelineBitIdenticalToUncapturedUnderJitter) {
  const double jitter = mt::make_beluga().costs.jitter_rel;
  ASSERT_GT(jitter, 0.0);
  for (const Coll c : {Coll::AllreduceRhd, Coll::AllgatherRing}) {
    ChainFixture on(jitter, /*graphs=*/true);
    ChainFixture off(jitter, /*graphs=*/false);
    std::vector<double> t_on, t_off;
    for (int i = 0; i < 4; ++i) {
      on.iterate(c, 8_MiB, 1);
      off.iterate(c, 8_MiB, 1);
      t_on.push_back(on.stack.engine().now());
      t_off.push_back(off.stack.engine().now());
    }
    EXPECT_EQ(t_on, t_off);
    EXPECT_GT(on.stack.chain()->stats().replayed_steps, 0u);
  }
}

// ---------------------------------------------------------------------------
// Payload identity
// ---------------------------------------------------------------------------

// The payload is part of a chain's key: a new payload captures its own
// chain, and returning to an earlier payload replays that chain. 512 KiB
// gives 128 KiB ring blocks, below min_multipath_bytes, so its chain is all
// passthrough — exactly what the unchained channel does at that size.
TEST(ChainPayload, EachPayloadCapturesItsOwnChain) {
  const double jitter = mt::make_beluga().costs.jitter_rel;
  ChainFixture on(jitter, /*graphs=*/true);
  ChainFixture off(jitter, /*graphs=*/false);
  std::vector<double> t_on, t_off;
  std::vector<std::uint64_t> replayed;
  for (const std::size_t bytes : {8_MiB, 512_KiB, 8_MiB}) {
    on.iterate(Coll::AllgatherRing, bytes, 1);
    off.iterate(Coll::AllgatherRing, bytes, 1);
    t_on.push_back(on.stack.engine().now());
    t_off.push_back(off.stack.engine().now());
    replayed.push_back(on.stack.chain()->stats().replayed_steps);
  }
  EXPECT_EQ(t_on, t_off);
  const mp::ChainStats st = on.stack.chain()->stats();
  EXPECT_EQ(st.captures, 2u);
  EXPECT_EQ(st.iterations_replayed, 1u);
  EXPECT_EQ(st.mismatch_kills + st.epoch_kills + st.stale_cal_kills, 0u);
  EXPECT_EQ(replayed[1], 0u);
  EXPECT_EQ(replayed[2], 12u);  // 3 rounds of 4 ring messages
  EXPECT_EQ(on.stack.chain()->cache_size(), 2u);

  // The replayed chain moves the right bytes: with materialized buffers,
  // every rank ends up holding every rank's block.
  const std::size_t blk = 2_MiB;  // the 8 MiB chain's block size
  on.stack.world().run([&](mi::Communicator& comm) -> ms::Task<void> {
    const auto p = static_cast<std::size_t>(comm.size());
    const auto me = static_cast<std::size_t>(comm.rank());
    mg::DeviceBuffer data(comm.device(), p * blk);
    std::ranges::fill(data.region(me * blk, blk),
                      static_cast<std::byte>(me + 1));
    co_await mi::allgather(comm, data, blk);
    for (std::size_t r = 0; r < p; ++r) {
      EXPECT_EQ(std::ranges::count(data.region(r * blk, blk),
                                   static_cast<std::byte>(r + 1)),
                static_cast<std::ptrdiff_t>(blk))
          << "rank " << me << " block " << r;
    }
  });
  EXPECT_EQ(on.stack.chain()->stats().replayed_steps, replayed[2] + 12u);
}

// ---------------------------------------------------------------------------
// Scheduled stacks: each replayed step admits through admit_replay
// ---------------------------------------------------------------------------

TEST(ChainScheduled, BatchAdmitsRoundsWithCleanLedger) {
  SchedFixture f;
  f.iterate(Coll::AllreduceRhd, 8_MiB, 6);
  const auto& ss = f.stack.scheduler()->stats();
  const mp::ChainStats cs = f.stack.chain()->stats();
  EXPECT_EQ(cs.captures, 1u);
  EXPECT_GT(cs.replayed_steps, 0u);
  // Every replayed step registered its ticket through admit_replay, and
  // every departure reconciles against the exact footprint it charged.
  EXPECT_GE(ss.replay_admits, cs.replayed_steps);
  EXPECT_EQ(ss.footprint_mismatches, 0u);
  EXPECT_EQ(f.stack.scheduler()->live_count(), 0u);
  EXPECT_EQ(cs.mismatch_kills, 0u);
}

// Scheduled replay identity: chained steps on a scheduled stack must be
// invisible in simulated time next to an identically seeded scheduled
// stack without chaining, with jitter on. A replayed step registers the
// ticket a fresh admission would, so the ledger stays balanced too.
TEST(ChainScheduled, ReplayBitIdenticalToUnchainedScheduledTwin) {
  const double jitter = mt::make_beluga().costs.jitter_rel;
  SchedFixture on(/*chained=*/true, jitter);
  SchedFixture off(/*chained=*/false, jitter);
  std::vector<double> t_on, t_off;
  for (int i = 0; i < 8; ++i) {
    on.iterate(Coll::AllreduceRhd, 32_MiB, 1);
    off.iterate(Coll::AllreduceRhd, 32_MiB, 1);
    t_on.push_back(on.stack.engine().now());
    t_off.push_back(off.stack.engine().now());
  }
  EXPECT_EQ(t_on, t_off);
  EXPECT_GT(on.stack.chain()->stats().replayed_steps, 0u);
  EXPECT_EQ(on.stack.scheduler()->stats().footprint_mismatches, 0u);
  EXPECT_EQ(on.stack.scheduler()->live_count(), 0u);
}

// With 4 ranks the steps contend for links: admit_replay refuses some of
// them, and each refused step falls back to the fresh admission the
// unchained twin makes, so the timelines still match.
TEST(ChainScheduled, ContendedStepsStayBitIdenticalToUnchainedTwin) {
  const double jitter = mt::make_beluga().costs.jitter_rel;
  for (const Coll c : {Coll::AllreduceRhd, Coll::AllgatherRing}) {
    SchedFixture on(/*chained=*/true, jitter, /*nranks=*/4);
    SchedFixture off(/*chained=*/false, jitter, /*nranks=*/4);
    std::vector<double> t_on, t_off;
    for (int i = 0; i < 6; ++i) {
      on.iterate(c, 32_MiB, 1);
      off.iterate(c, 32_MiB, 1);
      t_on.push_back(on.stack.engine().now());
      t_off.push_back(off.stack.engine().now());
    }
    EXPECT_EQ(t_on, t_off);
    const mp::ChainStats cs = on.stack.chain()->stats();
    EXPECT_GT(cs.replayed_steps, 0u);
    EXPECT_GT(cs.contended_steps, 0u);
    EXPECT_EQ(on.stack.scheduler()->stats().footprint_mismatches, 0u);
  }
}

TEST(ChainScheduled, CapacityEpochChangeKillsThenRecaptures) {
  SchedFixture f;
  f.iterate(Coll::AllreduceRhd, 8_MiB, 2);
  ASSERT_EQ(f.stack.chain()->stats().captures, 1u);
  ASSERT_GT(f.stack.chain()->stats().replayed_steps, 0u);

  // Degrade one GPU<->GPU link and restore it (factor 1 = baseline): two
  // capacity events, each superseding the chain's sealed epoch.
  const auto& topo = f.stack.system().topology;
  ms::LinkId victim{};
  bool found = false;
  for (const auto& e : topo.edges()) {
    if (topo.device(e.from).kind == mt::DeviceKind::Gpu &&
        topo.device(e.to).kind == mt::DeviceKind::Gpu &&
        !e.is_memory_channel) {
      victim = f.stack.runtime().binding().link_for_edge(e.id);
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  ms::FaultInjector inj(f.stack.engine(), f.stack.network());
  const double now = f.stack.engine().now();
  inj.degrade_at(now + 1e-3, victim, 0.5);
  inj.degrade_at(now + 2e-3, victim, 1.0);
  f.stack.engine().run();  // drain the fault events
  ASSERT_GE(f.stack.scheduler()->stats().capacity_events, 2u);

  // Next invocation resolves against a superseded epoch: the resident
  // chain dies, a fresh capture replaces it, and replay resumes after.
  const std::uint64_t replayed_mid = f.stack.chain()->stats().replayed_steps;
  f.iterate(Coll::AllreduceRhd, 8_MiB, 2);
  const mp::ChainStats st = f.stack.chain()->stats();
  EXPECT_GE(st.epoch_kills, 1u);
  EXPECT_EQ(st.captures, 2u);
  EXPECT_GT(st.replayed_steps, replayed_mid);
  EXPECT_EQ(f.stack.scheduler()->stats().footprint_mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Recovery stacks: a claimed step is watched like any replayed template
// ---------------------------------------------------------------------------

namespace {

bc::StackOptions recovery_opts(bool health) {
  bc::StackOptions o;
  o.model.recovery.enabled = true;
  o.model.health.enabled = health;
  return o;
}

const mp::RecoveryStats& recovery_stats(bc::SimStack& stack) {
  return dynamic_cast<mp::ModelDrivenChannel&>(stack.channel())
      .recovery_stats();
}

/// `iters` barrier-separated invocations inside ONE engine drain, so fault
/// events overlap the loop instead of being fast-forwarded through.
/// Returns how many iterations completed on rank 0.
int iterate_in_one_run(bc::SimStack& stack, Coll c, std::size_t bytes,
                       int iters) {
  int completed = 0;
  stack.world().run([&](mi::Communicator& comm) -> ms::Task<void> {
    for (int i = 0; i < iters; ++i) {
      co_await comm.barrier();
      co_await run_once(comm, c, bytes);
      co_await comm.barrier();
      if (comm.rank() == 0) ++completed;
    }
  });
  return completed;
}

}  // namespace

// Chain + recovery, fault-free: a claimed step arms the watchdogs its
// unchained twin arms and none fires, so with jitter on every iteration's
// clock matches the unchained recovery twin's, with health tracking off
// and on.
TEST(ChainRecovery, FaultFreeReplayBitIdenticalToUnchainedTwin) {
  const double jitter = mt::make_beluga().costs.jitter_rel;
  for (const bool health : {false, true}) {
    for (const Coll c :
         {Coll::AllreduceRhd, Coll::AllgatherRing, Coll::BcastBinomial}) {
      SCOPED_TRACE(::testing::Message() << "health " << health << " coll "
                                        << static_cast<int>(c));
      ChainFixture on(jitter, /*graphs=*/true, recovery_opts(health));
      ChainFixture off(jitter, /*graphs=*/false, recovery_opts(health));
      std::vector<double> t_on, t_off;
      for (int i = 0; i < 4; ++i) {
        on.iterate(c, 8_MiB, 1);
        off.iterate(c, 8_MiB, 1);
        t_on.push_back(on.stack.engine().now());
        t_off.push_back(off.stack.engine().now());
      }
      EXPECT_EQ(t_on, t_off);
      EXPECT_GT(on.stack.chain()->stats().replayed_steps, 0u);
      EXPECT_EQ(recovery_stats(on.stack).path_timeouts, 0u);
    }
  }
}

// A severed link under a chained collective: replayed steps over it time
// out and their remainders re-plan over the surviving paths, like any
// GraphCache hit's, so every iteration completes; once the link is back,
// replay resumes on the same chain and clearing it returns every event.
TEST(ChainRecovery, SeveredLinkRecoversThenReplayResumes) {
  for (const bool health : {false, true}) {
    SCOPED_TRACE(health ? "health on" : "health off");
    ChainFixture f(/*jitter_rel=*/0.0, /*graphs=*/true, recovery_opts(health));
    f.iterate(Coll::AllreduceRhd, 8_MiB, 2);
    const mt::Topology& topo = f.stack.system().topology;
    const std::vector<mt::DeviceId> gpus = topo.gpus();
    const ms::LinkId link = f.stack.runtime().binding().link_for_edge(
        *topo.direct_edge(gpus[0], gpus[1]));
    ms::FaultInjector inj(f.stack.engine(), f.stack.network());
    const double now = f.stack.engine().now();
    inj.sever_at(now + 0.2e-3, link);
    inj.restore_at(now + 6.2e-3, link);

    EXPECT_EQ(iterate_in_one_run(f.stack, Coll::AllreduceRhd, 8_MiB, 12), 12);
    EXPECT_GT(recovery_stats(f.stack).path_timeouts, 0u);
    EXPECT_EQ(recovery_stats(f.stack).transfers_failed, 0u);
    // With health tracking, steps over the suspect path fall back without
    // killing the chain.
    EXPECT_EQ(f.stack.chain()->stats().unhealthy_steps > 0, health);

    const std::uint64_t replayed_mid = f.stack.chain()->stats().replayed_steps;
    f.iterate(Coll::AllreduceRhd, 8_MiB, 4);
    EXPECT_GT(f.stack.chain()->stats().replayed_steps, replayed_mid);
    f.stack.chain()->clear();
    EXPECT_EQ(f.stack.runtime().events_outstanding(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Event-reservation accounting (chained steps hold compiled templates)
// ---------------------------------------------------------------------------

namespace {

/// Manual wiring (instead of SimStack) so the controller can be destroyed
/// while the runtime is still alive and inspectable.
struct ManualFixture {
  mt::System sys;
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt;
  mp::PipelineEngine pipe;
  mm::ModelRegistry reg;
  mm::PathConfigurator cfg;
  mp::ModelDrivenChannel channel;

  explicit ManualFixture(std::size_t staging_buffers_per_device = 16)
      : sys(beluga(0.0)),
        rt(sys, engine, net),
        pipe(rt, staging_buffers_per_device, mg::Payload::Simulated),
        reg(mpath::tuning::registry_from_topology(sys)),
        cfg(reg),
        channel(pipe, cfg, mt::PathPolicy::three_gpus()) {}
};

}  // namespace

TEST(ChainEvents, TemplatesReturnReservationsOnControllerDestruction) {
  ManualFixture f;
  const std::uint64_t baseline = f.rt.events_outstanding();
  {
    mp::ChainController chain(f.channel);
    mi::World world(f.rt, f.channel);  // destroyed first: detaches the tap
    world.set_chain_controller(&chain);
    for (int i = 0; i < 2; ++i) {
      world.run([&](mi::Communicator& comm) -> ms::Task<void> {
        co_await run_once(comm, Coll::AllreduceRhd, 8_MiB);
      });
    }
    EXPECT_EQ(chain.stats().captures, 1u);
    EXPECT_GT(chain.stats().replayed_steps, 0u);
    // Sealed templates hold their reserved fwd/bwd events across
    // iterations — that persistence is the replay fast path.
    EXPECT_GT(f.rt.events_outstanding(), baseline);
  }
  // Controller gone -> chains gone -> every reserved event back in the
  // runtime free list.
  EXPECT_EQ(f.rt.events_outstanding(), baseline);
}

TEST(ChainEvents, OneSlotPoolCompilesEveryStepAndReplays) {
  // One staging buffer per device. Templates hold no staging: each step
  // replay leases its slot like any transfer and returns it as its staged
  // path drains. So the seal compiles every recorded step, the next
  // iteration replays them, and controller destruction returns every
  // reserved event.
  ManualFixture f(/*staging_buffers_per_device=*/1);
  const std::uint64_t baseline = f.rt.events_outstanding();
  {
    mp::ChainController chain(f.channel);
    mi::World world(f.rt, f.channel);
    world.set_chain_controller(&chain);
    for (int i = 0; i < 2; ++i) {
      world.run([&](mi::Communicator& comm) -> ms::Task<void> {
        co_await run_once(comm, Coll::AllreduceRhd, 8_MiB);
      });
    }
    const mp::ChainStats st = chain.stats();
    EXPECT_EQ(st.captures, 1u);
    EXPECT_EQ(st.capture_aborts, 0u);
    EXPECT_EQ(st.passthrough_steps, 0u);
    EXPECT_GT(st.replayed_steps, 0u);
  }
  EXPECT_EQ(f.rt.events_outstanding(), baseline);
}

// ---------------------------------------------------------------------------
// Nightly fault-churn soak (MPATH_NIGHTLY_SOAK=1)
// ---------------------------------------------------------------------------

// Chained replay under seeded link-capacity churn: every iteration must
// complete (epoch kills fall back to fresh admission), the ledger must stay
// clean, and once the fault plan is exhausted the recaptured chain must
// converge back to replaying. Opt-in like the other soaks; the nightly CI
// job runs  ctest -R FaultSoak  with the gate set.
TEST(ChainFaultSoak, NightlyChurnKillsRecapturesAndReconverges) {
  const char* gate = std::getenv("MPATH_NIGHTLY_SOAK");
  if (gate == nullptr || std::string_view(gate) != "1") {
    GTEST_SKIP() << "set MPATH_NIGHTLY_SOAK=1 to run the chain churn soak";
  }
  SchedFixture f;
  std::vector<ms::LinkId> links;
  const auto& topo = f.stack.system().topology;
  for (const auto& e : topo.edges()) {
    if (topo.device(e.from).kind == mt::DeviceKind::Gpu &&
        topo.device(e.to).kind == mt::DeviceKind::Gpu &&
        !e.is_memory_channel) {
      links.push_back(f.stack.runtime().binding().link_for_edge(e.id));
    }
  }
  ASSERT_FALSE(links.empty());
  ms::FaultInjector inj(f.stack.engine(), f.stack.network());
  ms::FaultInjector::RandomPlanOptions fopt;
  fopt.horizon = 20e-3;
  fopt.faults = 8;
  fopt.sever_probability = 0.0;  // degrade only: every transfer completes
  fopt.min_duration = 1e-3;
  fopt.max_duration = 5e-3;
  inj.random_plan(links, fopt, 83);

  const int churn_iters = 24;
  EXPECT_EQ(
      iterate_in_one_run(f.stack, Coll::AllreduceRhd, 8_MiB, churn_iters),
      churn_iters);
  EXPECT_GT(f.stack.chain()->stats().epoch_kills +
                f.stack.chain()->stats().contended_steps,
            0u);
  // Plan exhausted: replay must re-engage.
  const std::uint64_t replayed_mid = f.stack.chain()->stats().replayed_steps;
  f.iterate(Coll::AllreduceRhd, 8_MiB, 4);
  EXPECT_GT(f.stack.chain()->stats().replayed_steps, replayed_mid);
  EXPECT_EQ(f.stack.scheduler()->stats().footprint_mismatches, 0u);
}

// Chained replay on a recovery + health stack under seeded random faults
// that include full severs: steps over a severed link time out and
// re-plan, so every iteration completes with no failed transfer, and once
// every fault is undone replay re-engages.
TEST(ChainFaultSoak, RecoveryRidesThroughRandomSevers) {
  const char* gate = std::getenv("MPATH_NIGHTLY_SOAK");
  if (gate == nullptr || std::string_view(gate) != "1") {
    GTEST_SKIP() << "set MPATH_NIGHTLY_SOAK=1 to run the chain sever soak";
  }
  bc::StackOptions opt = recovery_opts(/*health=*/true);
  opt.model.recovery.max_replans = 32;
  ChainFixture f(/*jitter_rel=*/0.0, /*graphs=*/true, opt);
  std::vector<ms::LinkId> links;
  const auto& topo = f.stack.system().topology;
  for (const auto& e : topo.edges()) {
    if (topo.device(e.from).kind == mt::DeviceKind::Gpu &&
        topo.device(e.to).kind == mt::DeviceKind::Gpu &&
        !e.is_memory_channel) {
      links.push_back(f.stack.runtime().binding().link_for_edge(e.id));
    }
  }
  ASSERT_FALSE(links.empty());
  f.iterate(Coll::AllreduceRhd, 8_MiB, 2);
  ms::FaultInjector inj(f.stack.engine(), f.stack.network());
  ms::FaultInjector::RandomPlanOptions fopt;
  fopt.start = f.stack.engine().now();
  fopt.horizon = 20e-3;
  fopt.faults = 8;
  fopt.sever_probability = 0.5;
  fopt.restore_probability = 1.0;  // the plan ends with every link back
  fopt.min_duration = 1e-3;
  fopt.max_duration = 5e-3;
  inj.random_plan(links, fopt, 89);

  const int iters = 24;
  EXPECT_EQ(iterate_in_one_run(f.stack, Coll::AllreduceRhd, 8_MiB, iters),
            iters);
  EXPECT_TRUE(std::ranges::any_of(inj.applied(), [](const auto& a) {
    return a.capacity_bps == 0.0;
  }));
  EXPECT_GT(recovery_stats(f.stack).path_timeouts, 0u);
  EXPECT_EQ(recovery_stats(f.stack).transfers_failed, 0u);
  // Plan exhausted: replay must re-engage.
  const std::uint64_t replayed_mid = f.stack.chain()->stats().replayed_steps;
  f.iterate(Coll::AllreduceRhd, 8_MiB, 4);
  EXPECT_GT(f.stack.chain()->stats().replayed_steps, replayed_mid);
  f.stack.chain()->clear();
  EXPECT_EQ(f.stack.runtime().events_outstanding(), 0u);
}
