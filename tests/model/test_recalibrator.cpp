// Online alpha/beta recalibration: EWMA drift detection with a publication
// threshold, bandwidth-vs-latency attribution of the correction, guard
// rails against the base model, and a closed-loop convergence check where
// the "real" link is slower than the fitted one. The concurrent-observer
// test runs under TSan in CI.
#include "mpath/model/recalibrator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "mpath/model/calibration_store.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/topo/system.hpp"

namespace mm = mpath::model;
namespace mt = mpath::topo;

namespace {

struct Fixture {
  mt::System sys = mt::make_beluga();
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  mm::ModelRegistry reg{"beluga"};

  Fixture() {
    for (auto a : gpus) {
      for (auto b : gpus) {
        if (a != b) reg.set_route_params(a, b, {3e-6, 46e9});
      }
    }
    reg.set_epsilon(mt::PathKind::GpuStaged, 1.5e-6);
    reg.set_issue_alpha(1.2e-6);
  }
};

mt::PathPlan direct() { return {mt::PathKind::Direct, mt::kInvalidDevice}; }

std::vector<mt::PathPlan> direct_only() { return {direct()}; }

}  // namespace

TEST(Recalibrator, IgnoresNonPositiveObservations) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto config =
      cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, direct_only());
  mm::CalibrationStore store;
  mm::Recalibrator rec(store);
  rec.observe(f.gpus[0], f.gpus[1], config, 0.0);
  rec.observe(f.gpus[0], f.gpus[1], config, -1.0);
  EXPECT_EQ(rec.stats().observations, 0u);
  EXPECT_EQ(store.version(), 0u);
}

TEST(Recalibrator, NoPublicationWithoutDrift) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto config =
      cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, direct_only());
  mm::CalibrationStore store;
  mm::Recalibrator rec(store);
  for (int i = 0; i < 20; ++i) {
    rec.observe(f.gpus[0], f.gpus[1], config, config.predicted_time);
  }
  EXPECT_EQ(rec.stats().observations, 20u);
  EXPECT_EQ(rec.stats().publications, 0u);
  EXPECT_EQ(store.version(), 0u);
}

TEST(Recalibrator, PublishesOnlyAfterMinSamplesAndThreshold) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto config =
      cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, direct_only());
  mm::CalibrationStore store;
  mm::Recalibrator rec(store);  // publishes after 3 samples past 5% drift
  const double slow = 1.5 * config.predicted_time;
  rec.observe(f.gpus[0], f.gpus[1], config, slow);
  rec.observe(f.gpus[0], f.gpus[1], config, slow);
  EXPECT_EQ(store.version(), 0u);  // drifted but below 3 samples
  rec.observe(f.gpus[0], f.gpus[1], config, slow);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(rec.stats().publications, 1u);
}

// A large message is bandwidth-dominated: a consistently slow transfer must
// be attributed to beta (scale < 1), leaving alpha essentially alone.
TEST(Recalibrator, LargeMessageDriftLandsOnBeta) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto config =
      cfg.compute_config(f.gpus[0], f.gpus[1], 256u << 20, direct_only());
  mm::CalibrationStore store;
  mm::Recalibrator rec(store);
  for (int i = 0; i < 10; ++i) {
    rec.observe(f.gpus[0], f.gpus[1], config, 1.5 * config.predicted_time);
  }
  const auto* cal = store.snapshot()->find(f.gpus[0], f.gpus[1], direct());
  ASSERT_NE(cal, nullptr);
  EXPECT_LT(cal->beta_scale, 0.95);
  EXPECT_NEAR(cal->alpha_scale, 1.0, 0.05);
  EXPECT_GT(cal->samples, 0u);
}

// A tiny message is latency-dominated: the same slowdown must land on
// alpha (scale > 1) instead of slashing the bandwidth estimate.
TEST(Recalibrator, SmallMessageDriftLandsOnAlpha) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto config =
      cfg.compute_config(f.gpus[0], f.gpus[1], 4u << 10, direct_only());
  mm::CalibrationStore store;
  mm::Recalibrator rec(store);
  for (int i = 0; i < 10; ++i) {
    rec.observe(f.gpus[0], f.gpus[1], config, 1.5 * config.predicted_time);
  }
  const auto* cal = store.snapshot()->find(f.gpus[0], f.gpus[1], direct());
  ASSERT_NE(cal, nullptr);
  EXPECT_GT(cal->alpha_scale, 1.05);
  EXPECT_GT(cal->beta_scale, 0.9);
}

// Guard rails: an absurd, sustained mismatch saturates the scales at
// [kMinCalibrationScale, kMaxCalibrationScale] relative to the base model
// instead of running away.
TEST(Recalibrator, GuardRailsClampRunawayCorrections) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto config =
      cfg.compute_config(f.gpus[0], f.gpus[1], 256u << 20, direct_only());
  mm::CalibrationStore store;
  mm::Recalibrator rec(store);
  for (int i = 0; i < 60; ++i) {
    rec.observe(f.gpus[0], f.gpus[1], config, 100.0 * config.predicted_time);
  }
  const auto* cal = store.snapshot()->find(f.gpus[0], f.gpus[1], direct());
  ASSERT_NE(cal, nullptr);
  EXPECT_GE(cal->beta_scale, mm::kMinCalibrationScale);
  EXPECT_LE(cal->alpha_scale, mm::kMaxCalibrationScale);
  EXPECT_GE(rec.stats().clamped, 1u);
}

// Closed loop against a ground truth: the fitted model says 46 GB/s but
// the "real" link runs at 23 GB/s. Observing actual times and re-planning
// with the published corrections must drive the prediction error toward
// zero, and the error must never increase across iterations.
TEST(Recalibrator, ClosedLoopConvergesOnSlowLink) {
  Fixture f;
  // Ground truth registry: same latency, half the bandwidth on g0 -> g1.
  mm::ModelRegistry truth = f.reg;
  truth.set_route_params(f.gpus[0], f.gpus[1], {3e-6, 23e9});
  mm::PathConfigurator true_cfg(truth);
  const auto actual =
      true_cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, direct_only());

  mm::CalibrationStore store;
  mm::PathConfigurator cal_cfg(f.reg);
  cal_cfg.set_calibration(&store);
  mm::Recalibrator rec(store);

  std::vector<double> errors;
  for (int i = 0; i < 30; ++i) {
    const auto planned =
        cal_cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, direct_only());
    errors.push_back(
        std::abs(planned.predicted_time - actual.predicted_time) /
        actual.predicted_time);
    rec.observe(f.gpus[0], f.gpus[1], planned, actual.predicted_time);
  }
  EXPECT_GT(errors.front(), 0.3);  // the uncorrected model is way off
  EXPECT_LT(errors.back(), 0.05);  // converged
  for (std::size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LE(errors[i], errors[i - 1] + 1e-9) << "at iteration " << i;
  }
  EXPECT_GE(rec.stats().publications, 2u);  // converged in multiple steps
  const auto* cal = store.snapshot()->find(f.gpus[0], f.gpus[1], direct());
  ASSERT_NE(cal, nullptr);
  EXPECT_NEAR(cal->beta_scale, 0.5, 0.05);
}

// Concurrent observers on one recalibrator: counters stay exact and the
// published state is one of the serially-reachable ones. Runs under TSan.
TEST(Recalibrator, ConcurrentObserversAreRaceFree) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto config =
      cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, direct_only());
  mm::CalibrationStore store;
  mm::Recalibrator rec(store);
  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        rec.observe(f.gpus[0], f.gpus[1], config,
                    1.2 * config.predicted_time);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(rec.stats().observations,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GE(rec.stats().publications, 1u);
  EXPECT_GE(store.version(), 1u);
  const auto* cal = store.snapshot()->find(f.gpus[0], f.gpus[1], direct());
  ASSERT_NE(cal, nullptr);
  EXPECT_LT(cal->beta_scale, 1.0);
  EXPECT_GE(cal->beta_scale, mm::kMinCalibrationScale);
}
