#include "mpath/tuning/calibration.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "mpath/model/configurator.hpp"
#include "mpath/util/units.hpp"

namespace mm = mpath::model;
namespace mt = mpath::topo;
namespace tu = mpath::tuning;
using mpath::util::gbps;

TEST(Calibration, AnalyticRegistryCoversAllRoutes) {
  const auto sys = mt::make_beluga();
  const auto reg = tu::registry_from_topology(sys);
  const auto gpus = sys.topology.gpus();
  const auto host = sys.topology.hosts()[0];
  for (auto a : gpus) {
    for (auto b : gpus) {
      if (a != b) EXPECT_TRUE(reg.has_route_params(a, b));
    }
    EXPECT_TRUE(reg.has_route_params(a, host));
    EXPECT_TRUE(reg.has_route_params(host, a));
  }
  EXPECT_DOUBLE_EQ(reg.route_params(gpus[0], gpus[1]).beta, gbps(46));
  EXPECT_GT(reg.epsilon(mt::PathKind::HostStaged),
            reg.epsilon(mt::PathKind::GpuStaged));
  EXPECT_GT(reg.issue_alpha(), 0.0);
}

TEST(Calibration, MeasuredBetaTracksGroundTruth) {
  auto sys = mt::make_beluga();
  sys.costs.jitter_rel = 0.0;  // deterministic microbenchmarks
  const auto reg = tu::calibrate(sys);
  const auto gpus = sys.topology.gpus();
  const auto host = sys.topology.hosts()[0];
  // NVLink routes fit to ~46 GB/s, PCIe routes to ~12 GB/s.
  EXPECT_NEAR(reg.route_params(gpus[0], gpus[1]).beta, gbps(46),
              0.03 * gbps(46));
  EXPECT_NEAR(reg.route_params(gpus[0], host).beta, gbps(12),
              0.03 * gbps(12));
  // Alpha captures wire latency + dispatch overhead: small but positive.
  EXPECT_GT(reg.route_params(gpus[0], gpus[1]).alpha, 0.0);
  EXPECT_LT(reg.route_params(gpus[0], gpus[1]).alpha, 50e-6);
}

TEST(Calibration, MeasuredRegistryIsUsableByConfigurator) {
  auto sys = mt::make_beluga();
  sys.costs.jitter_rel = 0.005;
  const auto reg = tu::calibrate(sys);
  mm::PathConfigurator cfg(reg);
  const auto gpus = sys.topology.gpus();
  const auto paths = mt::enumerate_paths(sys.topology, gpus[0], gpus[1],
                                         mt::PathPolicy::three_gpus());
  const auto& config = cfg.configure(gpus[0], gpus[1], 256u << 20, paths);
  // Three similar NVLink lanes: the prediction lands between 2x and 3x of
  // one lane.
  EXPECT_GT(config.predicted_bandwidth(), 2.0 * gbps(46));
  EXPECT_LT(config.predicted_bandwidth(), 3.0 * gbps(46));
}

TEST(Calibration, NarvalHostRoutesAreMemChannelLimited) {
  auto sys = mt::make_narval();
  sys.costs.jitter_rel = 0.0;
  const auto reg = tu::calibrate(sys);
  const auto gpus = sys.topology.gpus();
  const auto host0 = sys.topology.host_for_numa(0);
  // Isolated hop measurement sees the 16 GB/s memory channel, not the
  // 24 GB/s PCIe — the model will later overestimate the pipelined host
  // path, reproducing the paper's Observation 3.
  EXPECT_NEAR(reg.route_params(gpus[0], host0).beta, gbps(16),
              0.05 * gbps(16));
  // Cross-NUMA read from staging memory is slower than same-NUMA PCIe.
  EXPECT_LT(reg.route_params(host0, gpus[3]).beta, gbps(17));
}

TEST(Calibration, JitterMakesFitsNoisyButClose) {
  auto sys = mt::make_beluga();
  sys.costs.jitter_rel = 0.02;
  tu::CalibrationOptions opt;
  opt.seed = 77;
  const auto reg = tu::calibrate(sys, opt);
  const auto gpus = sys.topology.gpus();
  const double beta = reg.route_params(gpus[0], gpus[1]).beta;
  EXPECT_NEAR(beta, gbps(46), 0.10 * gbps(46));
  EXPECT_NE(beta, gbps(46));  // measurement noise is present
}

TEST(Calibration, RegistryRoundTripsThroughCsv) {
  // A jittered calibration fits values that need every digit. The reloaded
  // model must configure every transfer exactly as the calibrated one does,
  // on both presets and over the paper's size range.
  for (mt::System sys : {mt::make_beluga(), mt::make_narval()}) {
    sys.costs.jitter_rel = 0.02;
    tu::CalibrationOptions opt;
    opt.seed = 77;
    const auto reg = tu::calibrate(sys, opt);
    const std::string path = "/tmp/mpath_calibration_test.csv";
    reg.save_csv(path);
    const auto loaded = mm::ModelRegistry::load_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.system_name(), reg.system_name());
    EXPECT_EQ(loaded.route_count(), reg.route_count());

    const mm::PathConfigurator before(reg);
    const mm::PathConfigurator after(loaded);
    const auto gpus = sys.topology.gpus();
    const auto paths =
        mt::enumerate_paths(sys.topology, gpus[0], gpus[1],
                            mt::PathPolicy::three_gpus_with_host());
    for (std::uint64_t n = 1ull << 20; n <= 512ull << 20; n *= 2) {
      EXPECT_TRUE(before.compute_config(gpus[0], gpus[1], n, paths) ==
                  after.compute_config(gpus[0], gpus[1], n, paths))
          << sys.topology.name() << " " << n << " bytes";
    }
  }
}

TEST(Calibration, ContentionAwareFixesNarvalHostPath) {
  // The extension measures staged paths end to end; on Narval the host
  // path's two hops share the staging NUMA's memory channel, so the
  // effective inverse bandwidth must be markedly worse than the per-hop
  // composition predicts.
  auto sys = mt::make_narval();
  sys.costs.jitter_rel = 0.0;
  tu::CalibrationOptions opt;
  opt.contention_aware = true;
  const auto reg = tu::calibrate(sys, opt);
  EXPECT_GT(reg.contention_factor_count(), 0u);
  const auto gpus = sys.topology.gpus();
  const auto host = sys.topology.nearest_host(gpus[0]);
  const mt::PathPlan host_path{mt::PathKind::HostStaged, host};
  ASSERT_TRUE(reg.contention_factor(gpus[0], gpus[1], host_path).has_value());
  // Both hops share the staging NUMA's memory channel: the measured slope
  // is close to twice the composed slope.
  const double factor = *reg.contention_factor(gpus[0], gpus[1], host_path);
  EXPECT_GT(factor, 1.5);
  EXPECT_LT(factor, 2.5);
  // GPU-staged paths have no shared resource: no factor (or close to 1).
  const mt::PathPlan gpu_path{mt::PathKind::GpuStaged, gpus[2]};
  const auto gpu_factor =
      reg.contention_factor(gpus[0], gpus[1], gpu_path);
  if (gpu_factor.has_value()) {
    EXPECT_LT(*gpu_factor, 1.2);
  }
}
