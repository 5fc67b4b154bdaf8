#include "mpath/tuning/static_tuner.hpp"

#include <gtest/gtest.h>

#include "mpath/util/units.hpp"

namespace mt = mpath::topo;
namespace tu = mpath::tuning;
using namespace mpath::util::literals;
using mpath::util::gbps;

namespace {
tu::StaticTunerOptions coarse_options() {
  tu::StaticTunerOptions opt;
  // Keep unit tests quick: coarse grid, few chunk points, few iterations.
  opt.fraction_step = 0.25;
  opt.chunk_grid = {1, 8};
  opt.iterations = 2;
  opt.warmup = 1;
  return opt;
}
}  // namespace

TEST(StaticTuner, FindsMultiPathPlanForLargeMessages) {
  tu::StaticTuner tuner(mt::make_beluga(), mt::PathPolicy::two_gpus(),
                        coarse_options());
  const auto result = tuner.tune(128_MiB);
  EXPECT_GT(result.evaluated, 3);
  ASSERT_EQ(result.plan.size(), 2u);
  // A large message must use the staged path...
  EXPECT_GT(result.plan[1].theta, 0.0);
  // ...and beat the single direct lane.
  EXPECT_GT(result.bandwidth_bps, 1.3 * gbps(46));
}

TEST(StaticTuner, PrefersDirectOnlyForModestMessages) {
  tu::StaticTuner tuner(mt::make_beluga(), mt::PathPolicy::two_gpus(),
                        coarse_options());
  const auto result = tuner.tune(512_KiB);
  // At 512 KB the fixed staging overheads dominate: the exhaustive search
  // lands on an all-direct (or nearly all-direct) split.
  EXPECT_GE(result.plan[0].theta, 0.75);
}

TEST(StaticTuner, ChunkedPlansWinForStagedPaths) {
  tu::StaticTuner tuner(mt::make_beluga(), mt::PathPolicy::two_gpus(),
                        coarse_options());
  const auto result = tuner.tune(256_MiB);
  ASSERT_EQ(result.plan.size(), 2u);
  // With half the bytes staged, pipelining must win over k=1.
  EXPECT_GT(result.plan[1].chunks, 1);
}

TEST(StaticTuner, RequiresTwoGpus) {
  mt::System sys = mt::make_beluga();
  mt::Topology solo("solo");
  const auto host = solo.add_device(mt::DeviceKind::Host, 0, "h");
  solo.add_memory_channel(host, gbps(30), 0.2e-6);
  const auto g = solo.add_device(mt::DeviceKind::Gpu, 0, "g");
  solo.connect_duplex(g, host, mt::LinkKind::PCIe3, gbps(12), 1.6e-6);
  EXPECT_THROW(
      tu::StaticTuner(mt::System{std::move(solo), sys.costs},
                      mt::PathPolicy::two_gpus(), coarse_options()),
      std::invalid_argument);
}
