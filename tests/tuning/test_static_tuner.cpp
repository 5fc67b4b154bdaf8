#include "mpath/tuning/static_tuner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

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

TEST(StaticTuner, CacheRoundTrip) {
  const std::string cache = "/tmp/mpath_tuner_cache_test";
  std::filesystem::remove_all(cache);
  auto opt = coarse_options();
  opt.cache_dir = cache;
  tu::StaticTuner tuner(mt::make_beluga(), mt::PathPolicy::two_gpus(), opt);
  const auto first = tuner.tune(64_MiB);
  EXPECT_FALSE(first.from_cache);
  const auto second = tuner.tune(64_MiB);
  EXPECT_TRUE(second.from_cache);
  EXPECT_DOUBLE_EQ(second.bandwidth_bps, first.bandwidth_bps);
  ASSERT_EQ(second.plan.size(), first.plan.size());
  for (std::size_t i = 0; i < first.plan.size(); ++i) {
    EXPECT_DOUBLE_EQ(second.plan[i].theta, first.plan[i].theta);
    EXPECT_EQ(second.plan[i].chunks, first.plan[i].chunks);
  }
  std::filesystem::remove_all(cache);
}

// A cached plan is named by the grid and protocol that tuned it: a tuner
// with another fraction step, chunk grid or iteration count tunes afresh
// instead of reading it, and leaves it in place for its own tuner.
TEST(StaticTuner, AnotherGridMissesACachedPlan) {
  const std::string cache =
      ::testing::TempDir() + "mpath_tuner_cache_grid_test";
  std::filesystem::remove_all(cache);
  auto opt = coarse_options();
  opt.cache_dir = cache;
  EXPECT_FALSE(tu::StaticTuner(mt::make_beluga(), mt::PathPolicy::two_gpus(),
                               opt)
                   .tune(4_MiB)
                   .from_cache);
  auto chunks = opt;
  chunks.chunk_grid = {1, 16};
  auto fractions = opt;
  fractions.fraction_step = 0.5;
  auto iterations = opt;
  iterations.iterations = 3;
  for (const tu::StaticTunerOptions& other : {chunks, fractions, iterations}) {
    tu::StaticTuner tuner(mt::make_beluga(), mt::PathPolicy::two_gpus(),
                          other);
    EXPECT_FALSE(tuner.tune(4_MiB).from_cache);
    EXPECT_TRUE(tuner.tune(4_MiB).from_cache);
  }
  EXPECT_TRUE(tu::StaticTuner(mt::make_beluga(), mt::PathPolicy::two_gpus(),
                              opt)
                  .tune(4_MiB)
                  .from_cache);
  std::filesystem::remove_all(cache);
}

// A cache line that does not parse, has a NaN fraction or a chunk count of
// 0 is a miss: tune() tunes afresh and rewrites the file, and the next
// call reads the rewritten plan.
TEST(StaticTuner, CorruptCacheLineIsRetunedAndRewritten) {
  const std::string cache =
      ::testing::TempDir() + "mpath_tuner_cache_corrupt_test";
  std::filesystem::remove_all(cache);
  auto opt = coarse_options();
  opt.cache_dir = cache;
  tu::StaticTuner tuner(mt::make_beluga(), mt::PathPolicy::two_gpus(), opt);
  const auto tuned = tuner.tune(4_MiB);
  ASSERT_FALSE(tuned.from_cache);
  const std::filesystem::path file =
      std::filesystem::directory_iterator(cache)->path();
  for (const char* line :
       {"1e11,nan,0.5,1,8", "1e11,abc,0.5,1,8", "1e11,0.5,0.5,1,0"}) {
    std::ofstream(file) << line << "\n";
    const auto fresh = tuner.tune(4_MiB);
    EXPECT_FALSE(fresh.from_cache) << line;
    ASSERT_EQ(fresh.plan.size(), tuned.plan.size()) << line;
    double sum = 0.0;
    for (std::size_t i = 0; i < fresh.plan.size(); ++i) {
      EXPECT_GE(fresh.plan[i].theta, 0.0) << line;
      EXPECT_GE(fresh.plan[i].chunks, 1) << line;
      EXPECT_EQ(fresh.plan[i].theta, tuned.plan[i].theta) << line;
      EXPECT_EQ(fresh.plan[i].chunks, tuned.plan[i].chunks) << line;
      sum += fresh.plan[i].theta;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6) << line;
    const auto reread = tuner.tune(4_MiB);
    EXPECT_TRUE(reread.from_cache) << line;
    EXPECT_EQ(reread.bandwidth_bps, fresh.bandwidth_bps) << line;
  }
  std::filesystem::remove_all(cache);
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
