// Regression tests for event batching: monitored transfers account progress
// passively (DoneHooks on direct paths, existing backward events on staged
// paths), so turning monitoring on must not change completion times or
// issue extra stream operations; with jitter disabled the timings are
// bit-identical.
#include <gtest/gtest.h>

#include "mpath/pipeline/engine.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

/// A plan share: the engine reads only its path, bytes and chunk count.
mm::PathShare path_share(mt::PathPlan path, std::uint64_t bytes, int chunks) {
  return {path, 0.0, bytes, chunks, 0.0, {}};
}

struct Fixture {
  mt::System sys = [] {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;  // deterministic: identical runs tick identically
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  mp::PipelineEngine pipe{rt};
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();

  struct RunResult {
    double elapsed = -1.0;
    std::uint64_t events = 0;   // engine events processed
    std::uint64_t ops = 0;      // gpusim stream ops issued
    mp::TransferOutcome outcome;
  };

  RunResult run(mg::DeviceBuffer& dst, const mg::DeviceBuffer& src,
                std::vector<mm::PathShare> plan, mp::PathWatchList watch) {
    RunResult r;
    engine.spawn([](Fixture& fx, mg::DeviceBuffer& d,
                    const mg::DeviceBuffer& s, std::vector<mm::PathShare> p,
                    mp::PathWatchList w, RunResult& out) -> ms::Task<void> {
      out.outcome = co_await fx.pipe.execute(d, 0, s, 0, p, w);
      out.elapsed = fx.engine.now();
    }(*this, dst, src, std::move(plan), std::move(watch), r),
                 "exec");
    r.events = engine.run();
    r.ops = rt.ops_issued();
    EXPECT_GE(r.elapsed, 0.0);
    return r;
  }
};

}  // namespace

// A chunked direct path must finish at the exact same instant whether or
// not it is monitored: progress flows through completion hooks on the
// copies already being issued, not through extra event-record operations.
TEST(Batching, MonitoredDirectTimingMatchesUnmonitored) {
  std::vector<mm::PathShare> plan{
      path_share({mt::PathKind::Direct, mt::kInvalidDevice}, 8_MiB, 8)};

  Fixture plain;
  mg::DeviceBuffer s1(plain.gpus[0], 8_MiB), d1(plain.gpus[1], 8_MiB);
  s1.fill_pattern(31);
  const auto base = plain.run(d1, s1, plan, {});

  Fixture watched;
  mg::DeviceBuffer s2(watched.gpus[0], 8_MiB), d2(watched.gpus[1], 8_MiB);
  s2.fill_pattern(31);
  const auto mon = watched.run(d2, s2, plan, {mp::PathWatch{10.0}});

  EXPECT_DOUBLE_EQ(mon.elapsed, base.elapsed);
  EXPECT_TRUE(mon.outcome.complete);
  ASSERT_EQ(mon.outcome.paths.size(), 1u);
  EXPECT_EQ(mon.outcome.paths[0].bytes_delivered, 8_MiB);
  EXPECT_TRUE(d2.same_content(s2));
  // Passive accounting: no extra stream operations for the watchdog.
  EXPECT_EQ(mon.ops, base.ops);
}

// Same invariant for a mixed two-path plan (direct + GPU-staged): the
// staged path's watchdog polls the backward events the pipeline records
// anyway, so per-chunk completion times — and hence the transfer's finish
// time — are untouched by monitoring.
TEST(Batching, MonitoredMixedPlanTimingMatchesUnmonitored) {
  auto make_plan = [](const std::vector<mt::DeviceId>& gpus) {
    return std::vector<mm::PathShare>{
        path_share({mt::PathKind::Direct, mt::kInvalidDevice}, 2_MiB, 4),
        path_share({mt::PathKind::GpuStaged, gpus[2]}, 2_MiB, 8)};
  };

  Fixture plain;
  mg::DeviceBuffer s1(plain.gpus[0], 4_MiB), d1(plain.gpus[1], 4_MiB);
  s1.fill_pattern(32);
  const auto base = plain.run(d1, s1, make_plan(plain.gpus), {});

  Fixture watched;
  mg::DeviceBuffer s2(watched.gpus[0], 4_MiB), d2(watched.gpus[1], 4_MiB);
  s2.fill_pattern(32);
  const auto mon = watched.run(d2, s2, make_plan(watched.gpus),
                               {mp::PathWatch{10.0}, mp::PathWatch{10.0}});

  EXPECT_DOUBLE_EQ(mon.elapsed, base.elapsed);
  EXPECT_TRUE(mon.outcome.complete);
  EXPECT_EQ(mon.outcome.delivered(), 4_MiB);
  EXPECT_TRUE(d2.same_content(s2));
  EXPECT_EQ(mon.ops, base.ops);
}

// Monitoring's whole point: the delivered prefix must still be exact when a
// path is cut mid-flight, chunk by chunk. With hooks feeding a running
// total, a deadline landing between chunk completions reports precisely the
// chunks that finished — the same boundary the old event-record accounting
// produced.
TEST(Batching, HookAccountingReportsExactChunkPrefix) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 8_MiB), dst(f.gpus[1], 8_MiB);
  src.fill_pattern(33);
  // Time an unmonitored full run, then set a deadline at ~5/8 of it: the
  // direct path streams chunks back to back, so ~5 of 8 chunks land.
  Fixture probe;
  mg::DeviceBuffer ps(probe.gpus[0], 8_MiB), pd(probe.gpus[1], 8_MiB);
  const auto full = probe.run(
      pd, ps,
      {path_share({mt::PathKind::Direct, mt::kInvalidDevice}, 8_MiB, 8)},
      {});
  const double deadline = full.elapsed * 5.0 / 8.0;
  const auto cut = f.run(
      dst, src,
      {path_share({mt::PathKind::Direct, mt::kInvalidDevice}, 8_MiB, 8)},
      {mp::PathWatch{deadline}});
  EXPECT_FALSE(cut.outcome.complete);
  ASSERT_EQ(cut.outcome.paths.size(), 1u);
  EXPECT_TRUE(cut.outcome.paths[0].timed_out);
  const std::uint64_t got = cut.outcome.paths[0].bytes_delivered;
  EXPECT_EQ(got % 1_MiB, 0u) << "prefix must land on a chunk boundary";
  EXPECT_GT(got, 0u);
  EXPECT_LT(got, 8_MiB);
}
