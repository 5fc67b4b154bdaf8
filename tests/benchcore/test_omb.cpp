#include "mpath/benchcore/omb.hpp"

#include <gtest/gtest.h>

#include "mpath/benchcore/stack.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

namespace bc = mpath::benchcore;
namespace mi = mpath::mpisim;
namespace mm = mpath::model;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;
using mpath::util::gbps;

namespace {
mt::System quiet_beluga() {
  auto s = mt::make_beluga();
  s.costs.jitter_rel = 0;
  return s;
}
}  // namespace

TEST(Omb, DirectBwApproachesLinkBandwidth) {
  auto stack = bc::SimStack::direct(quiet_beluga());
  bc::P2POptions opt;
  opt.window = 16;
  opt.iterations = 6;
  const double bw = bc::measure_bw(stack.world(), 64_MiB, opt);
  EXPECT_GT(bw, 0.93 * gbps(46));
  EXPECT_LT(bw, gbps(46));
}

TEST(Omb, SmallMessagesAreLatencyBound) {
  auto stack = bc::SimStack::direct(quiet_beluga());
  const double bw = bc::measure_bw(stack.world(), 4_KiB);
  EXPECT_LT(bw, 0.3 * gbps(46));
}

TEST(Omb, BibwIsRoughlyTwiceBwOnDuplexLinks) {
  auto s1 = bc::SimStack::direct(quiet_beluga());
  bc::P2POptions opt;
  opt.window = 16;
  opt.iterations = 6;
  const double bw = bc::measure_bw(s1.world(), 64_MiB, opt);
  auto s2 = bc::SimStack::direct(quiet_beluga());
  const double bibw = bc::measure_bibw(s2.world(), 64_MiB, opt);
  EXPECT_GT(bibw, 1.8 * bw);
  EXPECT_LT(bibw, 2.05 * bw);
}

TEST(Omb, ModelDrivenStackBeatsDirectStack) {
  const auto sys = quiet_beluga();
  const auto reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg(reg);

  auto direct = bc::SimStack::direct(sys);
  bc::P2POptions opt;
  opt.window = 4;
  opt.iterations = 4;
  const double bw_direct = bc::measure_bw(direct.world(), 128_MiB, opt);

  auto multi = bc::SimStack::model_driven(sys, cfg,
                                          mt::PathPolicy::three_gpus());
  const double bw_multi = bc::measure_bw(multi.world(), 128_MiB, opt);
  EXPECT_GT(bw_multi / bw_direct, 2.0);
  EXPECT_LT(bw_multi / bw_direct, 3.1);
}

TEST(Omb, StaticPlanStackMeasures) {
  const auto sys = quiet_beluga();
  const auto gpus = sys.topology.gpus();
  const auto paths = mt::enumerate_paths(sys.topology, gpus[0], gpus[1],
                                         mt::PathPolicy::two_gpus());
  const mpath::pipeline::StaticPlan plan{{paths.at(0), 0.5, 0, 1, 0.0, {}},
                                         {paths.at(1), 0.5, 0, 16, 0.0, {}}};
  auto stack = bc::SimStack::static_plan(sys, plan);
  const double bw = bc::measure_bw(stack.world(), 128_MiB);
  EXPECT_GT(bw, 1.3 * gbps(46));
}

TEST(Omb, WindowSixteenBeatsWindowOne) {
  // Paper Observation 2: larger windows amortize latency.
  auto s1 = bc::SimStack::direct(quiet_beluga());
  bc::P2POptions w1;
  w1.window = 1;
  const double bw1 = bc::measure_bw(s1.world(), 8_MiB, w1);
  auto s2 = bc::SimStack::direct(quiet_beluga());
  bc::P2POptions w16;
  w16.window = 16;
  const double bw16 = bc::measure_bw(s2.world(), 8_MiB, w16);
  EXPECT_GT(bw16, bw1);
}

TEST(Omb, CollectiveLatencyIsPositiveAndScalesWithSize) {
  const auto sys = quiet_beluga();
  auto run = [&](std::size_t bytes) {
    auto stack = bc::SimStack::direct(sys);
    return bc::measure_collective_latency(
        stack.world(),
        [bytes](mi::Communicator& comm) -> ms::Task<void> {
          mpath::gpusim::DeviceBuffer buf(comm.device(), bytes);
          co_await mi::allreduce_sum(comm, buf);
        },
        {.iterations = 3, .warmup = 1});
  };
  const double small = run(1_MiB);
  const double large = run(64_MiB);
  EXPECT_GT(small, 0.0);
  // Fixed per-step costs (IPC opens, rendezvous) keep scaling sublinear,
  // but 64x the data must still cost several times more than 1 MB.
  EXPECT_GT(large, 4.0 * small);
}

TEST(Omb, OptionValidation) {
  auto stack = bc::SimStack::direct(quiet_beluga());
  bc::P2POptions bad;
  bad.src_rank = bad.dst_rank = 0;
  EXPECT_THROW((void)bc::measure_bw(stack.world(), 1_MiB, bad),
               std::invalid_argument);
  bc::P2POptions zero_window;
  zero_window.window = 0;
  EXPECT_THROW((void)bc::measure_bw(stack.world(), 1_MiB, zero_window),
               std::invalid_argument);
}
