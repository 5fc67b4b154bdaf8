// Open-loop traffic generation: deterministic arrival traces with the
// advertised pattern shapes, and end-to-end replay against scheduled and
// unscheduled stacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mpath/benchcore/traffic.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"

namespace bc = mpath::benchcore;
namespace mm = mpath::model;
namespace mt = mpath::topo;

namespace {

mt::System quiet_beluga() {
  auto s = mt::make_beluga();
  s.costs.jitter_rel = 0;
  return s;
}

}  // namespace

TEST(Traffic, DeterministicInSeed) {
  const auto sys = quiet_beluga();
  bc::TrafficOptions opt;
  opt.transfers = 64;
  opt.seed = 42;
  const auto a = bc::make_arrivals(sys.topology, opt);
  const auto b = bc::make_arrivals(sys.topology, opt);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
  opt.seed = 43;
  const auto c = bc::make_arrivals(sys.topology, opt);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].t != c[i].t || a[i].src != c[i].src ||
              a[i].bytes != c[i].bytes;
  }
  EXPECT_TRUE(differs);
}

TEST(Traffic, StormBurstsShareOneInstant) {
  const auto sys = quiet_beluga();
  bc::TrafficOptions opt;
  opt.pattern = bc::ArrivalPattern::kStorm;
  opt.transfers = 12;
  opt.storm_width = 4;
  opt.mean_interarrival_s = 1e-3;
  const auto arrivals = bc::make_arrivals(sys.topology, opt);
  ASSERT_EQ(arrivals.size(), 12u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_DOUBLE_EQ(arrivals[i].t, static_cast<double>(i / 4) * 1e-3);
  }
}

TEST(Traffic, PoissonGapsAverageToTheMean) {
  const auto sys = quiet_beluga();
  bc::TrafficOptions opt;
  opt.pattern = bc::ArrivalPattern::kPoisson;
  opt.transfers = 4000;
  opt.mean_interarrival_s = 100e-6;
  const auto arrivals = bc::make_arrivals(sys.topology, opt);
  double prev = 0.0;
  double sum = 0.0;
  for (const auto& a : arrivals) {
    ASSERT_GE(a.t, prev);  // non-decreasing
    sum += a.t - prev;
    prev = a.t;
  }
  const double mean = sum / static_cast<double>(arrivals.size());
  EXPECT_NEAR(mean, 100e-6, 10e-6);  // ~1.6% stderr, 10% slack
}

TEST(Traffic, HeavyTailMatchesMeanWithLargerSpread) {
  const auto sys = quiet_beluga();
  bc::TrafficOptions opt;
  opt.transfers = 4000;
  opt.mean_interarrival_s = 100e-6;
  opt.pattern = bc::ArrivalPattern::kPoisson;
  const auto poisson = bc::make_arrivals(sys.topology, opt);
  opt.pattern = bc::ArrivalPattern::kHeavyTail;
  const auto pareto = bc::make_arrivals(sys.topology, opt);

  auto max_gap = [](const std::vector<bc::Arrival>& v) {
    double prev = 0.0, mx = 0.0;
    for (const auto& a : v) {
      mx = std::max(mx, a.t - prev);
      prev = a.t;
    }
    return mx;
  };
  // Pareto gaps are floored at the scale parameter and the tail dwarfs the
  // exponential's.
  for (std::size_t i = 1; i < pareto.size(); ++i) {
    EXPECT_GE(pareto[i].t - pareto[i - 1].t,
              100e-6 * (bc::kParetoAlpha - 1.0) / bc::kParetoAlpha - 1e-12);
  }
  EXPECT_GT(max_gap(pareto), max_gap(poisson));
}

TEST(Traffic, PairsAndSizesComeFromTheConfiguredSets) {
  const auto sys = quiet_beluga();
  bc::TrafficOptions opt;
  opt.transfers = 200;
  opt.sizes = {1ull << 20, 2ull << 20};
  const auto arrivals = bc::make_arrivals(sys.topology, opt);
  const auto gpus = sys.topology.gpus();
  for (const auto& a : arrivals) {
    EXPECT_NE(a.src, a.dst);
    EXPECT_NE(std::find(gpus.begin(), gpus.end(), a.src), gpus.end());
    EXPECT_NE(std::find(gpus.begin(), gpus.end(), a.dst), gpus.end());
    EXPECT_TRUE(a.bytes == (1ull << 20) || a.bytes == (2ull << 20));
  }
}

TEST(Traffic, RejectsNonsense) {
  const auto sys = quiet_beluga();
  bc::TrafficOptions opt;
  opt.transfers = 0;
  EXPECT_THROW(bc::make_arrivals(sys.topology, opt), std::invalid_argument);
  opt.transfers = 4;
  opt.sizes.clear();
  EXPECT_THROW(bc::make_arrivals(sys.topology, opt), std::invalid_argument);
  opt = {};
  opt.pattern = bc::ArrivalPattern::kStorm;
  opt.storm_width = 0;
  EXPECT_THROW(bc::make_arrivals(sys.topology, opt), std::invalid_argument);
}

// End-to-end replay: a storm against a scheduled stack completes every
// transfer, the report accounting adds up, and the scheduler's history has
// one completed record per multi-path transfer.
TEST(Traffic, ReplayAgainstScheduledStackCompletesEverything) {
  auto sys = quiet_beluga();
  mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg(reg);
  auto stack = bc::SimStack::model_driven_scheduled(
      sys, cfg, mt::PathPolicy::three_gpus());

  bc::TrafficOptions opt;
  opt.pattern = bc::ArrivalPattern::kStorm;
  opt.transfers = 8;
  opt.storm_width = 4;
  opt.mean_interarrival_s = 500e-6;
  opt.sizes = {8ull << 20, 32ull << 20};
  const auto arrivals = bc::make_arrivals(sys.topology, opt);
  const auto report = bc::run_traffic(stack, arrivals);

  EXPECT_EQ(report.transfers, 8);
  EXPECT_EQ(report.completed, 8);
  EXPECT_EQ(report.failed, 0);
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_GT(report.transfers_per_s, 0.0);
  EXPECT_GT(report.aggregate_bandwidth, 0.0);
  const std::uint64_t expected_bytes = std::accumulate(
      arrivals.begin(), arrivals.end(), std::uint64_t{0},
      [](std::uint64_t acc, const bc::Arrival& a) { return acc + a.bytes; });
  EXPECT_EQ(report.bytes_offered, expected_bytes);

  ASSERT_NE(stack.scheduler(), nullptr);
  EXPECT_EQ(stack.scheduler()->history().size(), 8u);
  for (const auto& r : stack.scheduler()->history()) {
    EXPECT_TRUE(r.completed());
    EXPECT_GT(r.predicted_s, 0.0);
  }
}

// The same trace replays identically on unscheduled stacks too (the solo
// baseline path), and twice on fresh stacks gives bit-identical reports.
TEST(Traffic, ReplayIsReproducible) {
  auto sys = quiet_beluga();
  mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  bc::TrafficOptions opt;
  opt.transfers = 6;
  opt.sizes = {4ull << 20};
  const auto arrivals = bc::make_arrivals(sys.topology, opt);

  auto run_once = [&] {
    mm::PathConfigurator cfg(reg);
    auto stack =
        bc::SimStack::model_driven(sys, cfg, mt::PathPolicy::three_gpus());
    return bc::run_traffic(stack, arrivals);
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  EXPECT_EQ(r1.completed, 6);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.transfers_per_s, r2.transfers_per_s);
}
