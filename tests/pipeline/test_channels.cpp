#include "mpath/pipeline/channels.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/scheduler.hpp"
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

  double run_transfer(mg::DataChannel& ch, mg::DeviceBuffer& dst,
                      const mg::DeviceBuffer& src, std::size_t bytes) {
    const double start = engine.now();
    engine.spawn([](mg::DataChannel& c, mg::DeviceBuffer& d,
                    const mg::DeviceBuffer& s,
                    std::size_t n) -> ms::Task<void> {
      co_await c.transfer(d, 0, s, 0, n);
    }(ch, dst, src, bytes), "xfer");
    engine.run();
    return engine.now() - start;
  }
};

/// A static plan share: `theta` of every message on `path` at `chunks`
/// pipeline depth.
mm::PathShare static_share(mt::PathPlan path, double theta, int chunks) {
  return {path, theta, 0, chunks, 0.0, {}};
}

}  // namespace

TEST(Channels, SinglePathDeliversAndNames) {
  Fixture f;
  mp::SinglePathChannel ch(f.pipe);
  EXPECT_EQ(ch.name(), "direct");
  mg::DeviceBuffer src(f.gpus[0], 4_MiB), dst(f.gpus[1], 4_MiB);
  src.fill_pattern(11);
  f.run_transfer(ch, dst, src, 4_MiB);
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(f.pipe.bytes_on(mt::PathKind::Direct), 4_MiB);
  EXPECT_EQ(f.pipe.bytes_on(mt::PathKind::GpuStaged), 0u);
}

TEST(Channels, ModelDrivenUsesMultiplePathsForLargeMessages) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus());
  EXPECT_EQ(ch.name(), "model-driven");
  mg::DeviceBuffer src(f.gpus[0], 128_MiB), dst(f.gpus[1], 128_MiB);
  src.fill_pattern(12);
  f.run_transfer(ch, dst, src, 128_MiB);
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_GT(f.pipe.bytes_on(mt::PathKind::GpuStaged), 0u);
}

TEST(Channels, ModelDrivenFallsBackToDirectForSmallMessages) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus());
  mg::DeviceBuffer src(f.gpus[0], 64_KiB), dst(f.gpus[1], 64_KiB);
  src.fill_pattern(13);
  f.run_transfer(ch, dst, src, 64_KiB);
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(f.pipe.bytes_on(mt::PathKind::GpuStaged), 0u);
}

TEST(Channels, ModelDrivenIsFasterThanDirectForLargeMessages) {
  Fixture f;
  mp::SinglePathChannel direct(f.pipe);
  mg::DeviceBuffer src(f.gpus[0], 128_MiB), dst(f.gpus[1], 128_MiB);
  const double t_direct = f.run_transfer(direct, dst, src, 128_MiB);

  Fixture g;
  mp::ModelDrivenChannel multi(g.pipe, g.cfg, mt::PathPolicy::three_gpus());
  mg::DeviceBuffer src2(g.gpus[0], 128_MiB), dst2(g.gpus[1], 128_MiB);
  const double t_multi = g.run_transfer(multi, dst2, src2, 128_MiB);
  EXPECT_GT(t_direct / t_multi, 2.0);
}

TEST(Channels, StaticPlanValidation) {
  Fixture f;
  const mt::PathPlan direct{mt::PathKind::Direct, mt::kInvalidDevice};
  const mt::PathPlan staged{mt::PathKind::GpuStaged, f.gpus[2]};
  mp::StaticPlan bad;
  EXPECT_THROW(mp::StaticPlanChannel(f.pipe, bad), std::invalid_argument);
  bad = {static_share(staged, 1.0, 1)};
  EXPECT_THROW(mp::StaticPlanChannel(f.pipe, bad), std::invalid_argument);
  const mp::StaticPlan not_normalized{static_share(direct, 0.5, 1)};
  EXPECT_THROW(mp::StaticPlanChannel(f.pipe, not_normalized),
               std::invalid_argument);
  // A NaN fraction (say, from a corrupt tuner cache) makes both the sign
  // test and the sum test compare false; it must still be rejected.
  const mp::StaticPlan nan_fraction{
      static_share(direct, 1.0, 1),
      static_share(staged, std::numeric_limits<double>::quiet_NaN(), 8)};
  EXPECT_THROW(mp::StaticPlanChannel(f.pipe, nan_fraction),
               std::invalid_argument);
  const mp::StaticPlan negative_fraction{static_share(direct, 1.25, 1),
                                         static_share(staged, -0.25, 8)};
  EXPECT_THROW(mp::StaticPlanChannel(f.pipe, negative_fraction),
               std::invalid_argument);
  const mp::StaticPlan no_chunks{static_share(direct, 0.75, 1),
                                 static_share(staged, 0.25, 0)};
  EXPECT_THROW(mp::StaticPlanChannel(f.pipe, no_chunks), std::invalid_argument);
}

TEST(Channels, StaticPlanSplitsByFractions) {
  Fixture f;
  const mp::StaticPlan plan{
      static_share({mt::PathKind::Direct, mt::kInvalidDevice}, 0.75, 1),
      static_share({mt::PathKind::GpuStaged, f.gpus[2]}, 0.25, 8)};
  mp::StaticPlanChannel ch(f.pipe, plan);
  EXPECT_EQ(ch.name(), "static");
  mg::DeviceBuffer src(f.gpus[0], 64_MiB), dst(f.gpus[1], 64_MiB);
  src.fill_pattern(14);
  f.run_transfer(ch, dst, src, 64_MiB);
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(f.pipe.bytes_on(mt::PathKind::GpuStaged), 16_MiB);
  EXPECT_EQ(f.pipe.bytes_on(mt::PathKind::Direct), 48_MiB);
}

TEST(Channels, StaticPlanSmallMessagesGoDirect) {
  Fixture f;
  const mp::StaticPlan plan{
      static_share({mt::PathKind::Direct, mt::kInvalidDevice}, 0.5, 1),
      static_share({mt::PathKind::GpuStaged, f.gpus[2]}, 0.5, 8)};
  mp::StaticPlanChannel ch(f.pipe, plan);
  mg::DeviceBuffer src(f.gpus[0], 32_KiB), dst(f.gpus[1], 32_KiB);
  src.fill_pattern(15);
  f.run_transfer(ch, dst, src, 32_KiB);
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(f.pipe.bytes_on(mt::PathKind::GpuStaged), 0u);
}

// ---------------------------------------------------------------------------
// Option matrix: every plan source and option combination must complete at
// the same simulated instants as the plain channel it decorates. Graph
// replay, recovery watchdogs and path health are all designed to be
// invisible on a fault-free run; this pins that for solo and scheduled
// channels under jitter and concurrent closed-loop workers.
// ---------------------------------------------------------------------------

namespace {

enum class Variant {
  kPlain,
  kGraphs,
  kRecovery,
  kRecoveryHealth,
  kRecoveryGraphs,
  kRecoveryHealthGraphs,
};

/// Completion instants of `workers` closed-loop workers sharing one
/// model-driven channel on beluga (3_GPUs policy, jitter 0.02, `slots`
/// staging buffers per (source, stage) pool). Worker w moves
/// gpu[w % 4] -> gpu[(w + 1) % 4] and runs three transfers of each size in
/// turn.
std::vector<double> matrix_fingerprint(Variant v, bool scheduled,
                                       int workers, std::size_t slots) {
  mt::System sys = mt::make_beluga();
  sys.costs.jitter_rel = 0.02;
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  mp::PipelineEngine pipe{rt, slots, mg::Payload::Simulated};
  const mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg{reg};
  mp::TransferScheduler sched(pipe, cfg);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = v == Variant::kGraphs || v == Variant::kRecoveryGraphs ||
                        v == Variant::kRecoveryHealthGraphs
                    ? &cache
                    : nullptr;
  opts.recovery.enabled = v != Variant::kPlain && v != Variant::kGraphs;
  opts.health.enabled = v == Variant::kRecoveryHealth ||
                        v == Variant::kRecoveryHealthGraphs;
  std::optional<mp::ModelDrivenChannel> ch;
  if (scheduled) {
    ch.emplace(pipe, sched, cfg, mt::PathPolicy::three_gpus(), opts);
  } else {
    ch.emplace(pipe, cfg, mt::PathPolicy::three_gpus(), opts);
  }

  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  const std::size_t sizes[] = {128_KiB, 1_MiB, 8_MiB, 48_MiB};
  std::vector<std::vector<double>> finish(static_cast<std::size_t>(workers));
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  for (int w = 0; w < workers; ++w) {
    const std::size_t n = gpus.size();
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(
        gpus[static_cast<std::size_t>(w) % n], 48_MiB,
        mg::Payload::Simulated));
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(
        gpus[static_cast<std::size_t>(w + 1) % n], 48_MiB,
        mg::Payload::Simulated));
    engine.spawn(
        [](ms::Engine& eng, mg::DataChannel& c, mg::DeviceBuffer& d,
           const mg::DeviceBuffer& s, std::span<const std::size_t> ns,
           std::vector<double>& out) -> ms::Task<void> {
          for (const std::size_t bytes : ns) {
            for (int rep = 0; rep < 3; ++rep) {
              co_await c.transfer(d, 0, s, 0, bytes);
              out.push_back(eng.now());
            }
          }
        }(engine, *ch, *bufs.back(), *bufs[bufs.size() - 2], sizes,
          finish[static_cast<std::size_t>(w)]),
        "worker");
  }
  engine.run();
  // A variant that silently disengaged its fast path would match trivially.
  EXPECT_EQ(ch->recovery_stats().path_timeouts, 0u);
  if (opts.graphs != nullptr) {
    EXPECT_GE(ch->graph_stats().compiles, 1u);
    if (scheduled && workers > 1) {
      // Concurrent scheduled workers contend, so templates are refused.
      EXPECT_GE(ch->graph_stats().contended_rejects, 1u);
    } else if (workers == 8 && slots == 1) {
      // The two workers of each source queue for its one buffer, stay in
      // step, and always find their shared template mid-replay.
      EXPECT_GE(ch->graph_stats().busy_fallbacks, 1u);
    } else {
      EXPECT_GE(ch->graph_stats().replays, 1u);
    }
  }
  if (scheduled) {
    EXPECT_EQ(sched.live_count(), 0u);
  }
  std::vector<double> flat;
  for (const auto& f : finish) flat.insert(flat.end(), f.begin(), f.end());
  return flat;
}

}  // namespace

TEST(ChannelMatrix, EveryOptionVariantMatchesItsPlainTwin) {
  const Variant variants[] = {Variant::kGraphs, Variant::kRecovery,
                              Variant::kRecoveryHealth,
                              Variant::kRecoveryGraphs,
                              Variant::kRecoveryHealthGraphs};
  // The default pool of four buffers, and pools of two and one: smaller
  // than the staged transfers a source has in flight when eight workers put
  // two on each, and than what a template holding a buffer between runs
  // would leave free.
  for (const bool scheduled : {false, true}) {
    for (const int workers : {1, 4, 8}) {
      for (const std::size_t slots : {4, 2, 1}) {
        const std::vector<double> plain =
            matrix_fingerprint(Variant::kPlain, scheduled, workers, slots);
        ASSERT_EQ(plain.size(), static_cast<std::size_t>(12 * workers));
        for (const Variant v : variants) {
          const std::vector<double> got =
              matrix_fingerprint(v, scheduled, workers, slots);
          ASSERT_EQ(got.size(), plain.size());
          for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(got[i], plain[i])
                << "variant " << static_cast<int>(v) << " scheduled "
                << scheduled << " workers " << workers << " slots " << slots
                << " transfer " << i;
          }
        }
      }
    }
  }
}
