#include "mpath/model/registry.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "mpath/util/rng.hpp"

namespace mm = mpath::model;
namespace mt = mpath::topo;

TEST(Registry, RouteParamsRoundTrip) {
  mm::ModelRegistry reg("beluga");
  reg.set_route_params(0, 1, {2e-6, 46e9});
  EXPECT_TRUE(reg.has_route_params(0, 1));
  EXPECT_FALSE(reg.has_route_params(1, 0));  // directional
  EXPECT_DOUBLE_EQ(reg.route_params(0, 1).beta, 46e9);
  EXPECT_THROW((void)reg.route_params(1, 0), std::out_of_range);
  EXPECT_THROW(reg.set_route_params(0, 2, {1e-6, 0.0}),
               std::invalid_argument);
}

TEST(Registry, EpsilonDefaultsToZero) {
  mm::ModelRegistry reg;
  EXPECT_DOUBLE_EQ(reg.epsilon(mt::PathKind::GpuStaged), 0.0);
  reg.set_epsilon(mt::PathKind::GpuStaged, 1.5e-6);
  reg.set_epsilon(mt::PathKind::HostStaged, 4e-6);
  EXPECT_DOUBLE_EQ(reg.epsilon(mt::PathKind::GpuStaged), 1.5e-6);
  EXPECT_DOUBLE_EQ(reg.epsilon(mt::PathKind::HostStaged), 4e-6);
}

TEST(Registry, AssemblesDirectPathParams) {
  mm::ModelRegistry reg;
  reg.set_route_params(0, 1, {2e-6, 46e9});
  const auto p = reg.path_params(0, 1, {mt::PathKind::Direct, mt::kInvalidDevice});
  EXPECT_FALSE(p.staged());
  EXPECT_DOUBLE_EQ(p.first.beta, 46e9);
  EXPECT_DOUBLE_EQ(p.epsilon, 0.0);
}

TEST(Registry, AssemblesStagedPathParams) {
  mm::ModelRegistry reg;
  reg.set_route_params(0, 2, {2e-6, 46e9});
  reg.set_route_params(2, 1, {3e-6, 40e9});
  reg.set_epsilon(mt::PathKind::GpuStaged, 1.5e-6);
  const auto p = reg.path_params(0, 1, {mt::PathKind::GpuStaged, 2});
  ASSERT_TRUE(p.staged());
  EXPECT_DOUBLE_EQ(p.first.alpha, 2e-6);
  EXPECT_DOUBLE_EQ(p.second->beta, 40e9);
  EXPECT_DOUBLE_EQ(p.epsilon, 1.5e-6);
}

TEST(Registry, MissingHopThrows) {
  mm::ModelRegistry reg;
  reg.set_route_params(0, 2, {2e-6, 46e9});
  EXPECT_THROW((void)reg.path_params(0, 1, {mt::PathKind::GpuStaged, 2}),
               std::out_of_range);
}

TEST(Registry, CsvRoundTrip) {
  // Every value needs all 17 significant digits: a persisted model must
  // read back bit for bit, issue, protocol and epsilon records included.
  mm::ModelRegistry reg("narval");
  reg.set_route_params(0, 1, {2.5e-6 / 3.0, 92e9 / 7.0});
  reg.set_route_params(1, 0, {2.5e-6 / 7.0, 91e9 / 3.0});
  reg.set_route_params(4, 0, {6e-6 / 3.0, 16e9 / 7.0});
  reg.set_epsilon(mt::PathKind::GpuStaged, 1.25e-6 / 3.0);
  reg.set_epsilon(mt::PathKind::HostStaged, 5e-6 / 7.0);
  reg.set_issue_alpha(1.2e-6 / 7.0);
  reg.set_protocol_alpha(4.1e-6 / 3.0);

  const std::string path = "/tmp/mpath_registry_test.csv";
  reg.save_csv(path);
  const auto loaded = mm::ModelRegistry::load_csv(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.system_name(), "narval");
  EXPECT_EQ(loaded.route_count(), 3u);
  for (const auto& [a, b] : {std::pair{0u, 1u}, {1u, 0u}, {4u, 0u}}) {
    EXPECT_EQ(loaded.route_params(a, b).alpha, reg.route_params(a, b).alpha);
    EXPECT_EQ(loaded.route_params(a, b).beta, reg.route_params(a, b).beta);
  }
  EXPECT_EQ(loaded.epsilon(mt::PathKind::GpuStaged),
            reg.epsilon(mt::PathKind::GpuStaged));
  EXPECT_EQ(loaded.epsilon(mt::PathKind::HostStaged),
            reg.epsilon(mt::PathKind::HostStaged));
  EXPECT_EQ(loaded.issue_alpha(), reg.issue_alpha());
  EXPECT_EQ(loaded.protocol_alpha(), reg.protocol_alpha());
}

TEST(Registry, LoadMissingFileThrows) {
  EXPECT_THROW((void)mm::ModelRegistry::load_csv("/tmp/does_not_exist.csv"),
               std::runtime_error);
}

TEST(HockneyFitter, RecoversParameters) {
  mm::HockneyFitter fitter;
  const double alpha = 4e-6, beta = 46e9;
  for (double n = 1e6; n <= 512e6; n *= 2) {
    fitter.add_sample(n, alpha + n / beta);
  }
  EXPECT_EQ(fitter.sample_count(), 10u);
  const auto lp = fitter.fit();
  EXPECT_NEAR(lp.alpha, alpha, 1e-9);
  EXPECT_NEAR(lp.beta, beta, 1e-3 * beta);
}

TEST(HockneyFitter, NoisyFitStaysClose) {
  mm::HockneyFitter fitter;
  const double alpha = 4e-6, beta = 46e9;
  std::uint64_t sample = 0;
  for (double n = 1e6; n <= 512e6; n *= 2) {
    fitter.add_sample(
        n, (alpha + n / beta) * mpath::util::keyed_jitter(99, sample++, 0.02));
  }
  const auto lp = fitter.fit();
  EXPECT_NEAR(lp.beta, beta, 0.1 * beta);
  EXPECT_GE(lp.alpha, 0.0);  // clamped non-negative
}

TEST(HockneyFitter, RejectsBadInput) {
  mm::HockneyFitter fitter;
  EXPECT_THROW(fitter.add_sample(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(fitter.add_sample(1.0, 0.0), std::invalid_argument);
  fitter.add_sample(1e6, 1e-3);
  EXPECT_THROW((void)fitter.fit(), std::invalid_argument);
  // Decreasing times with size -> negative slope -> rejected.
  mm::HockneyFitter bad;
  bad.add_sample(1e6, 2e-3);
  bad.add_sample(2e6, 1e-3);
  EXPECT_THROW((void)bad.fit(), std::runtime_error);
}

TEST(Registry, ContentionFactorRoundTrip) {
  mm::ModelRegistry reg("x");
  const mt::PathPlan host_path{mt::PathKind::HostStaged, 4};
  EXPECT_FALSE(reg.contention_factor(0, 1, host_path).has_value());
  reg.set_contention_factor(0, 1, host_path, 2.0);
  ASSERT_TRUE(reg.contention_factor(0, 1, host_path).has_value());
  EXPECT_DOUBLE_EQ(*reg.contention_factor(0, 1, host_path), 2.0);
  // Distinct key dimensions do not collide.
  EXPECT_FALSE(reg.contention_factor(1, 0, host_path).has_value());
  EXPECT_FALSE(
      reg.contention_factor(0, 1, mt::PathPlan{mt::PathKind::GpuStaged, 4})
          .has_value());
  EXPECT_THROW(reg.set_contention_factor(0, 1, host_path, 0.9),
               std::invalid_argument);
}

TEST(Registry, ContentionFactorSurvivesCsv) {
  mm::ModelRegistry reg("x");
  reg.set_route_params(0, 1, {2e-6, 46e9});
  const mt::PathPlan plan{mt::PathKind::GpuStaged, 2};
  reg.set_contention_factor(0, 1, plan, 1.85);
  const std::string path = "/tmp/mpath_override_test.csv";
  reg.save_csv(path);
  const auto loaded = mm::ModelRegistry::load_csv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.contention_factor(0, 1, plan).has_value());
  EXPECT_NEAR(*loaded.contention_factor(0, 1, plan), 1.85, 1e-9);
  EXPECT_EQ(loaded.contention_factor_count(), 1u);
}
