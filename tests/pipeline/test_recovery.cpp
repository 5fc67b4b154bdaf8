// Watchdog-monitored execution and the degradation-aware recovery policy:
// monitored plans with healthy paths behave like execute(), severed paths
// time out with a delivered-prefix accounting instead of hanging, the
// model-driven channel re-plans the remainder over surviving paths, and a
// fully-severed source raises a typed TransferError.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "mpath/model/calibration_store.hpp"
#include "mpath/model/recalibrator.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/sim/fault.hpp"
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

struct Fixture {
  mt::System sys = [] {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  mp::PipelineEngine pipe{rt};
  mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg{reg};
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();

  [[nodiscard]] ms::LinkId direct_link(mt::DeviceId a, mt::DeviceId b) const {
    return rt.binding().link_for_edge(*sys.topology.direct_edge(a, b));
  }

  /// Set when run_monitored's plan was rejected with invalid_argument.
  std::optional<std::string> rejected;

  mp::TransferOutcome run_monitored(mg::DeviceBuffer& dst,
                                    const mg::DeviceBuffer& src,
                                    std::vector<mm::PathShare> plan,
                                    mp::PathWatchList watch) {
    mp::TransferOutcome out;
    rejected.reset();
    engine.spawn([](Fixture& fx, mg::DeviceBuffer& d,
                    const mg::DeviceBuffer& s, std::vector<mm::PathShare> p,
                    mp::PathWatchList w,
                    mp::TransferOutcome& o) -> ms::Task<void> {
      try {
        o = co_await fx.pipe.execute(d, 0, s, 0, p, w);
      } catch (const std::invalid_argument& e) {
        fx.rejected = e.what();
      }
    }(*this, dst, src, std::move(plan), std::move(watch), out), "exec");
    engine.run();
    return out;
  }
};

mt::PathPlan direct() { return {mt::PathKind::Direct, mt::kInvalidDevice}; }

/// A plan share: the engine reads only its path, bytes and chunk count.
mm::PathShare path_share(mt::PathPlan path, std::uint64_t bytes, int chunks) {
  return {path, 0.0, bytes, chunks, 0.0, {}};
}

}  // namespace

TEST(Recovery, MonitoredHealthyPlanCompletesIntact) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 8_MiB), dst(f.gpus[1], 8_MiB);
  src.fill_pattern(51);
  const auto out = f.run_monitored(
      dst, src,
      {path_share(direct(), 4_MiB, 4),
       path_share({mt::PathKind::GpuStaged, f.gpus[2]}, 4_MiB, 4)},
      {mp::PathWatch{10.0}, mp::PathWatch{10.0}});
  EXPECT_TRUE(out.complete);
  ASSERT_EQ(out.paths.size(), 2u);
  EXPECT_EQ(out.paths[0].bytes_delivered, 4_MiB);
  EXPECT_EQ(out.paths[1].bytes_delivered, 4_MiB);
  EXPECT_FALSE(out.paths[0].timed_out);
  EXPECT_TRUE(dst.same_content(src));
}

TEST(Recovery, EmptyWatchMatchesExecute) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), dst(f.gpus[1], 4_MiB);
  src.fill_pattern(52);
  const auto out =
      f.run_monitored(dst, src, {path_share(direct(), 4_MiB, 2)}, {});
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.delivered(), 4_MiB);
  EXPECT_TRUE(dst.same_content(src));
}

TEST(Recovery, WatchSizeMismatchRejected) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  (void)f.run_monitored(dst, src, {path_share(direct(), 1_MiB, 1)},
                        {mp::PathWatch{1.0}, mp::PathWatch{1.0}});
  EXPECT_TRUE(f.rejected.has_value());
}

// Severing the direct link mid-flight: the watchdog cancels the path, the
// outcome reports the delivered chunk prefix, and the engine drains
// instead of deadlocking on the stalled flow.
TEST(Recovery, SeveredDirectPathTimesOutWithPartialPrefix) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 8_MiB), dst(f.gpus[1], 8_MiB);
  src.fill_pattern(53);
  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  // ~0.18 ms healthy; sever at 60 us (a few of 8 chunks delivered), the
  // watchdog fires at 1 ms.
  f.engine.schedule_callback(60e-6,
                             [&] { f.net.set_link_capacity(link, 0.0); });
  const auto out = f.run_monitored(dst, src,
                                   {path_share(direct(), 8_MiB, 8)},
                                   {mp::PathWatch{1e-3}});
  EXPECT_FALSE(out.complete);
  ASSERT_EQ(out.paths.size(), 1u);
  EXPECT_TRUE(out.paths[0].timed_out);
  EXPECT_LT(out.paths[0].bytes_delivered, 8_MiB);
  EXPECT_EQ(out.paths[0].bytes_delivered % 1_MiB, 0u);  // whole chunks
  // The engine went quiet shortly after the deadline, not at the stalled
  // flow's never-time.
  EXPECT_LT(f.engine.now(), 0.1);
  EXPECT_EQ(f.net.stalled_flow_count(), 0u);
  EXPECT_GT(f.net.stats().cancelled_flows, 0u);
}

// A staged path that times out must return its staging buffers to the
// pool: a follow-up transfer over the same stage acquires them and
// completes after the link is restored.
TEST(Recovery, TimedOutStagedPathReleasesStagingSlots) {
  Fixture f;
  const auto via = f.gpus[2];
  const auto link = f.direct_link(f.gpus[0], via);
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), dst(f.gpus[1], 4_MiB);
  src.fill_pattern(54);
  f.engine.schedule_callback(20e-6,
                             [&] { f.net.set_link_capacity(link, 0.0); });
  const auto out = f.run_monitored(
      dst, src, {path_share({mt::PathKind::GpuStaged, via}, 4_MiB, 4)},
      {mp::PathWatch{1e-3}});
  EXPECT_FALSE(out.complete);
  EXPECT_TRUE(out.paths[0].timed_out);

  // Restore and run a fresh staged transfer through the same pool.
  f.net.set_link_capacity(link, f.sys.topology.edges()[
      *f.sys.topology.direct_edge(f.gpus[0], via)].capacity_bps);
  mg::DeviceBuffer src2(f.gpus[0], 4_MiB), dst2(f.gpus[1], 4_MiB);
  src2.fill_pattern(55);
  const auto out2 = f.run_monitored(
      dst2, src2, {path_share({mt::PathKind::GpuStaged, via}, 4_MiB, 4)},
      {mp::PathWatch{10.0}});
  EXPECT_TRUE(out2.complete);
  EXPECT_TRUE(dst2.same_content(src2));
}

// Regression (satellite): a plan whose per-path byte counts overflow the
// 64-bit total used to wrap past the bounds check and start issuing before
// failing — leaking staging slots. It must now throw before any issuance.
TEST(Recovery, OverflowingPlanRejectedBeforeIssuing) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 8), dst(f.gpus[1], 8);
  std::vector<mm::PathShare> plan{
      path_share(direct(), std::numeric_limits<std::uint64_t>::max(), 1),
      path_share({mt::PathKind::GpuStaged, f.gpus[2]}, 2, 1)};
  (void)f.run_monitored(dst, src, std::move(plan), {});
  ASSERT_TRUE(f.rejected.has_value());
  EXPECT_NE(f.rejected->find("overflow"), std::string::npos);
  EXPECT_EQ(f.rt.ops_issued(), 0u);
  EXPECT_EQ(f.pipe.transfers_executed(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end recovery through the model-driven channel
// ---------------------------------------------------------------------------

namespace {

mp::ModelDrivenOptions recovery_opts() {
  mp::ModelDrivenOptions o;
  o.recovery.enabled = true;
  o.recovery.max_replans = 3;
  return o;
}

struct ChannelRun {
  std::optional<mg::TransferError::Info> error;
  std::string what;
};

ms::Task<void> guarded_transfer(mg::DataChannel& ch, mg::DeviceBuffer& dst,
                                const mg::DeviceBuffer& src,
                                std::size_t bytes, ChannelRun& run) {
  try {
    co_await ch.transfer(dst, 0, src, 0, bytes);
  } catch (const mg::TransferError& e) {
    run.error = e.info();
    run.what = e.what();
  }
}

}  // namespace

// The acceptance scenario: the fastest (direct) path degrades to 10% of
// its capacity mid-flight; the transfer still completes — bytes shift to
// the surviving staged paths via re-planning — with the payload intact.
TEST(Recovery, DegradedDirectPathRecoversViaReplan) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            recovery_opts());
  constexpr std::size_t kBytes = 64_MiB;
  mg::DeviceBuffer src(f.gpus[0], kBytes), dst(f.gpus[1], kBytes);
  src.fill_pattern(61);
  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  const double base = f.net.link(link).capacity_bps;
  f.engine.schedule_callback(
      100e-6, [&, base] { f.net.set_link_capacity(link, 0.1 * base); });

  ChannelRun run;
  f.engine.spawn(guarded_transfer(ch, dst, src, kBytes, run), "xfer");
  f.engine.run();

  EXPECT_FALSE(run.error.has_value()) << run.what;
  EXPECT_TRUE(dst.same_content(src));
  const auto& st = ch.recovery_stats();
  EXPECT_GE(st.path_timeouts, 1u);
  EXPECT_GE(st.replans, 1u);
  EXPECT_EQ(st.transfers_recovered, 1u);
  EXPECT_EQ(st.transfers_failed, 0u);
  EXPECT_GT(st.recovery_time_s, 0.0);
}

// A solo re-plan's remainder is a request no later transfer makes, so it is
// computed without entering the config cache: only the first attempts (one
// per distinct transfer size here) leave entries behind, however many
// distinct remainders recovery re-plans.
TEST(Recovery, SoloReplansDoNotGrowTheConfigCache) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            recovery_opts());
  // From 100 us on the direct link runs at a tenth of its capacity: each
  // transfer's first attempt plans it at full speed, times out on it and
  // re-plans its remainder over the staged survivors.
  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  const double base = f.net.link(link).capacity_bps;
  f.engine.schedule_callback(
      100e-6, [&, base] { f.net.set_link_capacity(link, 0.1 * base); });

  static constexpr std::size_t kSizes[] = {64_MiB, 48_MiB, 32_MiB};
  std::vector<ChannelRun> runs(std::size(kSizes));
  f.engine.spawn(
      [](Fixture& fx, mp::ModelDrivenChannel& c,
         std::vector<ChannelRun>& out) -> ms::Task<void> {
        for (std::size_t i = 0; i < out.size(); ++i) {
          mg::DeviceBuffer src(fx.gpus[0], kSizes[i]);
          mg::DeviceBuffer dst(fx.gpus[1], kSizes[i]);
          co_await guarded_transfer(c, dst, src, kSizes[i], out[i]);
        }
      }(f, ch, runs),
      "xfers");
  f.engine.run();

  for (const ChannelRun& run : runs) {
    EXPECT_FALSE(run.error.has_value()) << run.what;
  }
  EXPECT_GE(ch.recovery_stats().replans, std::size(kSizes));
  EXPECT_EQ(f.cfg.cache_size(), std::size(kSizes));
}

// With recovery enabled but no fault, the channel must not pay any
// recovery work and must deliver identically.
TEST(Recovery, HealthyTransferPaysNoRecovery) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            recovery_opts());
  mg::DeviceBuffer src(f.gpus[0], 16_MiB), dst(f.gpus[1], 16_MiB);
  src.fill_pattern(62);
  ChannelRun run;
  f.engine.spawn(guarded_transfer(ch, dst, src, 16_MiB, run), "xfer");
  f.engine.run();
  EXPECT_FALSE(run.error.has_value());
  EXPECT_TRUE(dst.same_content(src));
  const auto& st = ch.recovery_stats();
  EXPECT_EQ(st.path_timeouts, 0u);
  EXPECT_EQ(st.replans, 0u);
  EXPECT_EQ(st.transfers_recovered, 0u);
}

// A recovery-enabled transfer that finishes cancels its watchdogs: nothing
// of it stays queued once it completes, and the engine's clock stops at the
// completion instant instead of running on to a deadline that can no
// longer matter.
TEST(Recovery, FinishedTransferLeavesNoWatchdogQueued) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            recovery_opts());
  mg::DeviceBuffer src(f.gpus[0], 16_MiB), dst(f.gpus[1], 16_MiB);
  src.fill_pattern(63);
  double done_at = -1.0;
  std::size_t queued_at_done = 0;
  f.engine.spawn(
      [](mp::ModelDrivenChannel& c, ms::Engine& e, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s, double& at,
         std::size_t& queued) -> ms::Task<void> {
        co_await c.transfer(d, 0, s, 0, 16_MiB);
        at = e.now();
        queued = e.queued_event_count();
      }(ch, f.engine, dst, src, done_at, queued_at_done),
      "xfer");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(ch.recovery_stats().path_timeouts, 0u);
  EXPECT_GT(done_at, 0.0);
  EXPECT_EQ(queued_at_done, 0u);
  EXPECT_EQ(f.engine.now(), done_at);
  EXPECT_EQ(f.engine.queued_event_count(), 0u);
}

// Severing every egress link of the source leaves no survivor: the channel
// must raise a typed TransferError carrying partial-progress accounting,
// and the simulation must terminate (no hang).
TEST(Recovery, FullySeveredSourceThrowsTransferError) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            recovery_opts());
  constexpr std::size_t kBytes = 16_MiB;
  mg::DeviceBuffer src(f.gpus[0], kBytes), dst(f.gpus[1], kBytes);
  src.fill_pattern(63);
  f.engine.schedule_callback(50e-6, [&] {
    for (const mt::Edge& e : f.sys.topology.edges()) {
      if (e.from == f.gpus[0] && !e.is_memory_channel) {
        f.net.set_link_capacity(f.rt.binding().link_for_edge(e.id), 0.0);
      }
    }
  });

  ChannelRun run;
  f.engine.spawn(guarded_transfer(ch, dst, src, kBytes, run), "xfer");
  f.engine.run();

  ASSERT_TRUE(run.error.has_value());
  EXPECT_EQ(run.error->bytes_requested, kBytes);
  EXPECT_LT(run.error->bytes_delivered, kBytes);
  EXPECT_GT(run.error->elapsed_s, 0.0);
  EXPECT_GE(run.error->retries, 1);
  EXPECT_NE(run.what.find("dead paths"), std::string::npos);
  const auto& st = ch.recovery_stats();
  EXPECT_EQ(st.transfers_failed, 1u);
  EXPECT_GE(st.path_timeouts, 1u);
  EXPECT_EQ(f.net.stalled_flow_count(), 0u);  // all aborted, none parked
}

// Bounded retries: a path that flaps forever must exhaust max_replans and
// fail instead of re-planning indefinitely.
TEST(Recovery, ReplanBudgetIsBounded) {
  Fixture f;
  auto opts = recovery_opts();
  opts.recovery.max_replans = 2;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);
  constexpr std::size_t kBytes = 32_MiB;
  mg::DeviceBuffer src(f.gpus[0], kBytes), dst(f.gpus[1], kBytes);
  src.fill_pattern(64);
  // Sever everything out of gpu0 almost immediately and keep it severed.
  f.engine.schedule_callback(10e-6, [&] {
    for (const mt::Edge& e : f.sys.topology.edges()) {
      if (e.from == f.gpus[0] && !e.is_memory_channel) {
        f.net.set_link_capacity(f.rt.binding().link_for_edge(e.id), 0.0);
      }
    }
  });
  ChannelRun run;
  f.engine.spawn(guarded_transfer(ch, dst, src, kBytes, run), "xfer");
  f.engine.run();
  ASSERT_TRUE(run.error.has_value());
  EXPECT_LE(run.error->retries, 2 + 1);  // bounded by max_replans (+ final)
}

// Concurrent transfers on one recovery channel must each feed the
// recalibrator their own configuration. The two workers use disjoint
// direct links, so every prediction is exact and nothing may publish; a
// transfer that reported another transfer's plan (read back from shared
// channel state after its co_await) would look like drift.
TEST(Recovery, ConcurrentTransfersFeedTheRecalibratorTheirOwnConfig) {
  Fixture f;
  mm::CalibrationStore store;
  f.cfg.set_calibration(&store);
  mm::Recalibrator recal(store);
  auto opts = recovery_opts();
  opts.recalibrator = &recal;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::direct_only(),
                            opts);
  const auto sim = mg::Payload::Simulated;
  mg::DeviceBuffer src_a(f.gpus[0], 64_MiB, sim), dst_a(f.gpus[1], 64_MiB, sim);
  mg::DeviceBuffer src_b(f.gpus[2], 8_MiB, sim), dst_b(f.gpus[3], 8_MiB, sim);
  const auto loop = [](mg::DataChannel& c, mg::DeviceBuffer& d,
                       const mg::DeviceBuffer& s,
                       std::size_t n) -> ms::Task<void> {
    for (int i = 0; i < 6; ++i) co_await c.transfer(d, 0, s, 0, n);
  };
  f.engine.spawn(loop(ch, dst_a, src_a, 64_MiB), "large");
  f.engine.spawn(loop(ch, dst_b, src_b, 8_MiB), "small");
  f.engine.run();
  EXPECT_EQ(recal.stats().observations, 12u);
  EXPECT_EQ(store.version(), 0u);
}

// Host planning time is accounted on recovery channels too: the
// admission, configure and watchdog set-up of a multi-path transfer is
// the channel's planning cost whichever plan source ran it.
TEST(Recovery, PlanTimeIsAccountedWithRecovery) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            recovery_opts());
  mg::DeviceBuffer src(f.gpus[0], 32_MiB), dst(f.gpus[1], 32_MiB);
  ChannelRun run;
  f.engine.spawn(guarded_transfer(ch, dst, src, 32_MiB, run), "xfer");
  f.engine.run();
  ASSERT_FALSE(run.error.has_value());
  EXPECT_GT(f.pipe.bytes_on(mt::PathKind::GpuStaged), 0u);
  EXPECT_GT(ch.graph_stats().plan_ns, 0u);
}
