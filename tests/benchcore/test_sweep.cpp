#include "mpath/benchcore/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mpath/benchcore/omb.hpp"
#include "mpath/benchcore/stack.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/topo/paths.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/csv.hpp"
#include "mpath/util/rng.hpp"
#include "mpath/util/units.hpp"

namespace bc = mpath::benchcore;
namespace mm = mpath::model;
namespace mt = mpath::topo;
namespace mu = mpath::util;
using namespace mpath::util::literals;

TEST(SweepRunner, ResultsAreIndexOrdered) {
  bc::SweepRunner runner(bc::SweepOptions{4});
  const auto out = runner.run(100, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 3 * i + 1);
  }
}

TEST(SweepRunner, EachIndexRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  bc::SweepRunner runner(bc::SweepOptions{8});
  (void)runner.run(hits.size(), [&](std::size_t i) {
    // Uneven workloads force stealing across blocks.
    if (i % 7 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, JobsOneRunsInline) {
  bc::SweepRunner runner(bc::SweepOptions{1});
  EXPECT_EQ(runner.jobs(), 1);
  const auto caller = std::this_thread::get_id();
  const auto ids = runner.run(
      8, [](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(SweepRunner, LowestIndexExceptionWins) {
  bc::SweepRunner runner(bc::SweepOptions{4});
  try {
    (void)runner.run(40, [](std::size_t i) {
      // Make a high index fail fast and a low index fail slow, so the
      // timing-dependent "first" failure differs from the index order.
      if (i == 37) throw std::runtime_error("scenario 37");
      if (i == 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        throw std::runtime_error("scenario 5");
      }
      return i;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "scenario 5");
  }
}

TEST(SweepRunner, StatsAccountForEveryScenario) {
  bc::SweepRunner runner(bc::SweepOptions{3});
  (void)runner.run(20, [](std::size_t i) { return i; });
  (void)runner.run(10, [](std::size_t i) { return i; });
  const auto& s = runner.stats();
  EXPECT_EQ(s.jobs, 3);
  EXPECT_EQ(s.scenarios, 30u);
  std::uint64_t ran = 0;
  for (auto c : s.worker_scenarios) ran += c;
  EXPECT_EQ(ran, 30u);
  EXPECT_GT(s.wall_s, 0.0);
  EXPECT_GE(s.efficiency(), 0.0);
  EXPECT_LE(s.efficiency(), 1.0);
}

TEST(SweepRunner, MoreJobsThanScenariosIsFine) {
  bc::SweepRunner runner(bc::SweepOptions{16});
  const auto out = runner.run(3, [](std::size_t i) { return i; });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], 2u);
}

// Workers on every core leave none for the jitter filler thread, so while
// they run, jitter streams fill their own batches; fewer workers leave the
// filler a core.
TEST(SweepRunner, WorkersOnEveryCoreFillTheirOwnJitter) {
  const int hw = bc::SweepRunner::hardware_jobs();
  const auto n = static_cast<std::size_t>(hw);
  const auto fills_ahead = [](std::size_t) {
    return mu::JitterStream::fills_ahead() ? 1 : 0;
  };
  bc::SweepRunner every_core(bc::SweepOptions{hw});
  for (const int f : every_core.run(n, fills_ahead)) EXPECT_EQ(f, 0);
  EXPECT_TRUE(mu::JitterStream::fills_ahead());
  if (hw > 1) {
    bc::SweepRunner fewer(bc::SweepOptions{hw - 1});
    for (const int f : fewer.run(n, fills_ahead)) EXPECT_EQ(f, 1);
  }
}

namespace {

/// A miniature fig5-style sweep: measure direct + model-driven bandwidth
/// over a (policy, size) grid on private stacks, merge serially into a
/// CSV. Returns the CSV bytes.
std::string mini_sweep_csv(int jobs, const std::string& path) {
  auto system = mt::make_beluga();
  const auto registry = mpath::tuning::calibrate(system);
  const auto gpus = system.topology.gpus();
  const std::vector<mt::PathPolicy> policies = {mt::PathPolicy::two_gpus(),
                                                mt::PathPolicy::three_gpus()};
  const std::vector<std::size_t> sizes = {8_MiB, 64_MiB};

  struct Cell {
    double direct = 0.0;
    double dynamic = 0.0;
  };
  bc::SweepRunner runner(bc::SweepOptions{jobs});
  auto cells = runner.run(
      policies.size() * sizes.size(), [&](std::size_t idx) {
        const auto& policy = policies[idx / sizes.size()];
        const std::size_t bytes = sizes[idx % sizes.size()];
        bc::P2POptions p2p;
        p2p.iterations = 2;
        Cell cell;
        auto direct = bc::SimStack::direct(system);
        cell.direct = bc::measure_bw(direct.world(), bytes, p2p);
        mm::PathConfigurator configurator(registry);
        auto dynamic = bc::SimStack::model_driven(system, configurator,
                                                  policy);
        cell.dynamic = bc::measure_bw(dynamic.world(), bytes, p2p);
        return cell;
      });

  {
    mu::CsvWriter csv(path);
    csv.header({"policy", "bytes", "direct", "dynamic"});
    std::size_t idx = 0;
    for (const auto& policy : policies) {
      for (std::size_t bytes : sizes) {
        const Cell& cell = cells[idx++];
        csv.row({policy.label(), std::to_string(bytes),
                 mu::CsvWriter::num(cell.direct),
                 mu::CsvWriter::num(cell.dynamic)});
      }
    }
  }
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

}  // namespace

TEST(SweepDeterminism, ParallelCsvIsByteIdenticalToSerial) {
  const std::string serial =
      mini_sweep_csv(1, "/tmp/mpath_sweep_serial.csv");
  const std::string parallel =
      mini_sweep_csv(4, "/tmp/mpath_sweep_par4.csv");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}
