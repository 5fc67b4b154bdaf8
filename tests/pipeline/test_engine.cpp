#include "mpath/pipeline/engine.hpp"

#include <gtest/gtest.h>

#include "mpath/topo/system.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;
using mpath::util::gbps;

namespace {

struct Fixture {
  mt::System sys;
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt;
  mp::PipelineEngine pipe{rt};
  std::vector<mt::DeviceId> gpus;

  explicit Fixture(bool clean_costs = false) : sys(make_sys(clean_costs)),
        rt(sys, engine, net) {
    gpus = sys.topology.gpus();
  }

  static mt::System make_sys(bool clean) {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;  // deterministic timing in tests
    if (clean) {
      s.costs.op_launch_s = 0;
      s.costs.event_record_s = 0;
      s.costs.event_wait_s = 0;
      s.costs.stage_sync_s = 0;
      s.costs.host_stage_sync_s = 0;
    }
    return s;
  }

  /// Run one plan to completion; returns elapsed simulated seconds.
  double run(mg::DeviceBuffer& dst, const mg::DeviceBuffer& src,
             std::vector<mm::PathShare> plan) {
    double finish = -1;
    const double start = engine.now();
    engine.spawn([](mp::PipelineEngine& pe, mg::DeviceBuffer& d,
                    const mg::DeviceBuffer& s, std::vector<mm::PathShare> p,
                    double& out) -> ms::Task<void> {
      (void)co_await pe.execute(d, 0, s, 0, p);
      out = pe.runtime().engine().now();
    }(pipe, dst, src, std::move(plan), finish), "exec");
    engine.run();
    EXPECT_GE(finish, 0.0);
    return finish - start;
  }
};

mt::PathPlan direct() {
  return {mt::PathKind::Direct, mt::kInvalidDevice};
}

/// A plan share: the engine reads only its path, bytes and chunk count.
mm::PathShare path_share(mt::PathPlan path, std::uint64_t bytes, int chunks) {
  return {path, 0.0, bytes, chunks, 0.0, {}};
}

}  // namespace

TEST(PipelineEngine, DirectPlanDeliversPayload) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 8_MiB), dst(f.gpus[1], 8_MiB);
  src.fill_pattern(1);
  f.run(dst, src, {path_share(direct(), 8_MiB, 1)});
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(f.pipe.transfers_executed(), 1u);
  EXPECT_EQ(f.pipe.bytes_on(mt::PathKind::Direct), 8_MiB);
}

TEST(PipelineEngine, DirectPlanTimeIsCloseToAnalytic) {
  Fixture f(/*clean_costs=*/true);
  mg::DeviceBuffer src(f.gpus[0], 64_MiB), dst(f.gpus[1], 64_MiB);
  const double t = f.run(dst, src, {path_share(direct(), 64_MiB, 1)});
  const double expected = 1e-6 + static_cast<double>(64_MiB) / gbps(46);
  EXPECT_NEAR(t, expected, 1e-8);
}

TEST(PipelineEngine, GpuStagedPlanDeliversPayload) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 8_MiB), dst(f.gpus[1], 8_MiB);
  src.fill_pattern(2);
  f.run(dst, src,
        {path_share({mt::PathKind::GpuStaged, f.gpus[2]}, 8_MiB, 8)});
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(f.pipe.bytes_on(mt::PathKind::GpuStaged), 8_MiB);
}

TEST(PipelineEngine, HostStagedPlanDeliversPayload) {
  Fixture f;
  const auto host = f.sys.topology.hosts()[0];
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), dst(f.gpus[1], 4_MiB);
  src.fill_pattern(3);
  f.run(dst, src, {path_share({mt::PathKind::HostStaged, host}, 4_MiB, 4)});
  EXPECT_TRUE(dst.same_content(src));
}

TEST(PipelineEngine, MultiPathPlanDeliversEveryRegion) {
  Fixture f;
  const auto host = f.sys.topology.hosts()[0];
  mg::DeviceBuffer src(f.gpus[0], 64_MiB), dst(f.gpus[1], 64_MiB);
  src.fill_pattern(4);
  dst.fill_pattern(5);
  f.run(dst, src,
        {path_share(direct(), 30_MiB, 1),
         path_share({mt::PathKind::GpuStaged, f.gpus[2]}, 16_MiB, 8),
         path_share({mt::PathKind::GpuStaged, f.gpus[3]}, 14_MiB, 8),
         path_share({mt::PathKind::HostStaged, host}, 4_MiB, 4)});
  EXPECT_TRUE(dst.same_content(src));
}

TEST(PipelineEngine, PipeliningBeatsUnpipelinedStaging) {
  // The core Section 3.4 effect: k chunks overlap the two hops. A staged
  // transfer with k=16 must finish in clearly less time than k=1, and
  // approach the single-hop time for large messages.
  Fixture f(/*clean_costs=*/true);
  const std::size_t n = 64_MiB;
  mg::DeviceBuffer src1(f.gpus[0], n), dst1(f.gpus[1], n);
  const double t1 = f.run(
      dst1, src1, {path_share({mt::PathKind::GpuStaged, f.gpus[2]}, n, 1)});
  Fixture g(/*clean_costs=*/true);
  mg::DeviceBuffer src2(g.gpus[0], n), dst2(g.gpus[1], n);
  const double t16 = g.run(
      dst2, src2, {path_share({mt::PathKind::GpuStaged, g.gpus[2]}, n, 16)});
  const double hop = static_cast<double>(n) / gbps(46);
  EXPECT_GT(t1, 1.9 * hop);        // k=1: two sequential hops
  EXPECT_LT(t16, 1.2 * hop);       // k=16: hops overlap
}

TEST(PipelineEngine, ThreePathsBeatDirectByNearlyThreeTimes) {
  // The headline effect (up to 2.9x on one paper machine): three ~equal
  // NVLink lanes. Even split across direct + two staged paths.
  Fixture f;
  const std::size_t n = 192_MiB;
  mg::DeviceBuffer src1(f.gpus[0], n), dst1(f.gpus[1], n);
  const double t_direct = f.run(dst1, src1, {path_share(direct(), n, 1)});
  Fixture g;
  mg::DeviceBuffer src3(g.gpus[0], n), dst3(g.gpus[1], n);
  const double t_multi = g.run(
      dst3, src3,
      {path_share(direct(), 64_MiB, 1),
       path_share({mt::PathKind::GpuStaged, g.gpus[2]}, 64_MiB, 16),
       path_share({mt::PathKind::GpuStaged, g.gpus[3]}, 64_MiB, 16)});
  EXPECT_TRUE(dst3.same_content(src3));
  const double speedup = t_direct / t_multi;
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 3.1);
}

TEST(PipelineEngine, ZeroByteAndSkippedPathsAreFine) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  src.fill_pattern(6);
  f.run(dst, src,
        {path_share(direct(), 1_MiB, 1),
         path_share({mt::PathKind::GpuStaged, f.gpus[2]}, 0, 4)});
  EXPECT_TRUE(dst.same_content(src));
}

TEST(PipelineEngine, ChunksAreCappedByBytes) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 16), dst(f.gpus[1], 16);
  src.fill_pattern(7);
  // 3 bytes on a staged path with k=8: must degrade to k=3, not crash.
  f.run(dst, src,
        {path_share(direct(), 13, 1),
         path_share({mt::PathKind::GpuStaged, f.gpus[2]}, 3, 8)});
  EXPECT_TRUE(dst.same_content(src));
}

// A plan is issued through a transient graph whose ops index chunks; a
// chunk count past 16 bits must still address every chunk of the slice.
TEST(PipelineEngine, ChunkCountsBeyondSixteenBitsDeliver) {
  Fixture f;
  constexpr std::size_t kChunks = 70000;
  mg::DeviceBuffer src(f.gpus[0], kChunks), dst(f.gpus[1], kChunks);
  src.fill_pattern(8);
  f.run(dst, src, {path_share(direct(), kChunks, kChunks)});
  EXPECT_TRUE(dst.same_content(src));
}

TEST(PipelineEngine, MalformedPlansThrow) {
  Fixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  bool threw_chunks = false, threw_stage = false, threw_bounds = false;
  f.engine.spawn([](mp::PipelineEngine& pe, mg::DeviceBuffer& d,
                    const mg::DeviceBuffer& s, bool& a, bool& b,
                    bool& c) -> ms::Task<void> {
    std::vector<mm::PathShare> bad_chunks{path_share(direct(), 64, 0)};
    try {
      (void)co_await pe.execute(d, 0, s, 0, bad_chunks);
    } catch (const std::invalid_argument&) {
      a = true;
    }
    std::vector<mm::PathShare> bad_stage{
        path_share({mt::PathKind::GpuStaged, mt::kInvalidDevice}, 64, 1)};
    try {
      (void)co_await pe.execute(d, 0, s, 0, bad_stage);
    } catch (const std::invalid_argument&) {
      b = true;
    }
    std::vector<mm::PathShare> bad_bounds{path_share(direct(), 2_MiB, 1)};
    try {
      (void)co_await pe.execute(d, 0, s, 0, bad_bounds);
    } catch (const std::out_of_range&) {
      c = true;
    }
  }(f.pipe, dst, src, threw_chunks, threw_stage, threw_bounds), "errors");
  f.engine.run();
  EXPECT_TRUE(threw_chunks);
  EXPECT_TRUE(threw_stage);
  EXPECT_TRUE(threw_bounds);
}

TEST(PipelineEngine, SimulatedStagingStillRelaysMaterializedPayload) {
  // Regression: a timing-only staging pool must not lose payload between
  // materialized endpoints (caught by the collective_allreduce example).
  Fixture f;
  mp::PipelineEngine sim_staged(f.rt, 4, mg::Payload::Simulated);
  mg::DeviceBuffer src(f.gpus[0], 8_MiB), dst(f.gpus[1], 8_MiB);
  src.fill_pattern(41);
  f.engine.spawn([](mp::PipelineEngine& pe, mg::DeviceBuffer& d,
                    const mg::DeviceBuffer& s,
                    std::vector<mt::DeviceId> gpus) -> ms::Task<void> {
    std::vector<mm::PathShare> plan{
        path_share(direct(), 3_MiB, 1),
        path_share({mt::PathKind::GpuStaged, gpus[2]}, 5_MiB, 8)};
    (void)co_await pe.execute(d, 0, s, 0, plan);
  }(sim_staged, dst, src, f.gpus), "xfer");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
}

TEST(PipelineEngine, ConcurrentTransfersDoNotCorruptEachOther) {
  // Windowed sends share streams and staging pools; payloads must still
  // land intact.
  Fixture f;
  const std::size_t n = 8_MiB;
  std::vector<std::unique_ptr<mg::DeviceBuffer>> srcs, dsts;
  for (int i = 0; i < 6; ++i) {
    srcs.push_back(std::make_unique<mg::DeviceBuffer>(f.gpus[0], n));
    dsts.push_back(std::make_unique<mg::DeviceBuffer>(f.gpus[1], n));
    srcs.back()->fill_pattern(100 + static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 6; ++i) {
    f.engine.spawn([](mp::PipelineEngine& pe, mg::DeviceBuffer& d,
                      const mg::DeviceBuffer& s,
                      std::vector<mt::DeviceId> gpus) -> ms::Task<void> {
      std::vector<mm::PathShare> plan{
          path_share(direct(), 4_MiB, 1),
          path_share({mt::PathKind::GpuStaged, gpus[2]}, 4_MiB, 8)};
      (void)co_await pe.execute(d, 0, s, 0, plan);
    }(f.pipe, *dsts[static_cast<std::size_t>(i)],
      *srcs[static_cast<std::size_t>(i)], f.gpus), "xfer");
  }
  f.engine.run();
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(dsts[static_cast<std::size_t>(i)]->same_content(
        *srcs[static_cast<std::size_t>(i)]))
        << "transfer " << i;
  }
}
