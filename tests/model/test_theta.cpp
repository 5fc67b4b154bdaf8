#include "mpath/model/theta.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "mpath/util/rng.hpp"

namespace mm = mpath::model;

namespace {
double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}
}  // namespace

TEST(ThetaSolver, SinglePathGetsEverything) {
  std::vector<mm::PathTerms> paths{{1.0 / 46e9, 2e-6}};
  const auto sol = mm::ThetaSolver::solve(paths, 64e6);
  ASSERT_EQ(sol.theta.size(), 1u);
  EXPECT_DOUBLE_EQ(sol.theta[0], 1.0);
  EXPECT_NEAR(sol.predicted_time, 2e-6 + 64e6 / 46e9, 1e-15);
}

TEST(ThetaSolver, EqualPathsSplitEqually) {
  std::vector<mm::PathTerms> paths(3, mm::PathTerms{1.0 / 46e9, 2e-6});
  const auto sol = mm::ThetaSolver::solve(paths, 96e6);
  for (double t : sol.theta) EXPECT_NEAR(t, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(sum(sol.theta), 1.0, 1e-12);
}

TEST(ThetaSolver, HigherBandwidthGetsLargerShare) {
  // Paper's reading of Eq. 8: bandwidth-proportional at equal latency.
  std::vector<mm::PathTerms> paths{{1.0 / 40e9, 2e-6}, {1.0 / 10e9, 2e-6}};
  const auto sol = mm::ThetaSolver::solve(paths, 100e6);
  EXPECT_NEAR(sol.theta[0], 0.8, 1e-9);
  EXPECT_NEAR(sol.theta[1], 0.2, 1e-9);
}

TEST(ThetaSolver, HigherLatencyGetsSmallerShare) {
  std::vector<mm::PathTerms> paths{{1.0 / 40e9, 1e-6}, {1.0 / 40e9, 100e-6}};
  const auto sol = mm::ThetaSolver::solve(paths, 100e6);
  EXPECT_GT(sol.theta[0], sol.theta[1]);
  EXPECT_NEAR(sum(sol.theta), 1.0, 1e-12);
}

TEST(ThetaSolver, EqualTimeProperty) {
  // Theorem 1: at the optimum all active path times are equal.
  std::vector<mm::PathTerms> paths{
      {1.0 / 46e9, 2e-6}, {1.0 / 40e9, 8e-6}, {1.0 / 11e9, 20e-6}};
  const auto sol = mm::ThetaSolver::solve(paths, 256e6);
  EXPECT_EQ(sol.active.size(), 3u);
  EXPECT_LT(mm::ThetaSolver::time_spread(paths, sol.theta, 256e6),
            1e-9 * sol.predicted_time + 1e-12);
}

TEST(ThetaSolver, SlowPathExcludedForSmallMessages) {
  // A path with a large Delta cannot help a tiny message: Eq. 24 yields a
  // negative share and the active-set step must drop it.
  std::vector<mm::PathTerms> paths{{1.0 / 46e9, 2e-6}, {1.0 / 12e9, 500e-6}};
  const auto sol = mm::ThetaSolver::solve(paths, 1e5);  // 100 KB
  EXPECT_DOUBLE_EQ(sol.theta[1], 0.0);
  EXPECT_DOUBLE_EQ(sol.theta[0], 1.0);
  ASSERT_EQ(sol.active.size(), 1u);
  EXPECT_EQ(sol.active[0], 0u);
}

TEST(ThetaSolver, ExcludedPathRejoinsForLargeMessages) {
  std::vector<mm::PathTerms> paths{{1.0 / 46e9, 2e-6}, {1.0 / 12e9, 500e-6}};
  const auto sol = mm::ThetaSolver::solve(paths, 512e6);
  EXPECT_GT(sol.theta[1], 0.0);
  EXPECT_EQ(sol.active.size(), 2u);
}

TEST(ThetaSolver, DirectNeverExcluded) {
  // Even when the direct path is much worse, it keeps a (small) share as
  // long as its theta stays non-negative; and if everything else is
  // dropped it retains the whole message.
  std::vector<mm::PathTerms> paths{{1.0 / 1e9, 50e-6}, {1.0 / 46e9, 2e-6}};
  const auto sol = mm::ThetaSolver::solve(paths, 64e6);
  EXPECT_GT(sol.theta[0], 0.0);
  EXPECT_NEAR(sum(sol.theta), 1.0, 1e-12);
}

TEST(ThetaSolver, DroppedPathLeftoverGoesToDirectOnly) {
  // Regression: when a clamped-negative share is cleaned up, the leftover
  // mass must be folded into the direct path (whose Eq. 24 share absorbed
  // the negative term), not renormalized across all paths — renormalizing
  // scales the equal-time staged shares and breaks Theorem 1.
  std::vector<mm::PathTerms> paths{
      {1.0 / 10e9, 5e-6},     // modest direct path (keeps a small share)
      {1.0 / 46e9, 2e-6},     // good staged path
      {1.0 / 12e9, 800e-6}};  // hopeless for small messages -> dropped
  const auto sol = mm::ThetaSolver::solve(paths, 2e5);  // 200 KB
  EXPECT_DOUBLE_EQ(sol.theta[2], 0.0);
  EXPECT_NEAR(sum(sol.theta), 1.0, 1e-12);
  EXPECT_GT(sol.theta[0], 0.0);
  // Active-path times stay equalized after cleanup (time_spread ~ 0).
  EXPECT_LT(mm::ThetaSolver::time_spread(paths, sol.theta, 2e5),
            1e-9 * sol.predicted_time + 1e-12);
}

TEST(ThetaSolver, InputValidation) {
  std::vector<mm::PathTerms> empty;
  EXPECT_THROW((void)mm::ThetaSolver::solve(empty, 1e6),
               std::invalid_argument);
  std::vector<mm::PathTerms> paths{{1.0 / 46e9, 2e-6}};
  EXPECT_THROW((void)mm::ThetaSolver::solve(paths, 0.0),
               std::invalid_argument);
  std::vector<mm::PathTerms> bad{{0.0, 2e-6}};
  EXPECT_THROW((void)mm::ThetaSolver::solve(bad, 1e6),
               std::invalid_argument);
}

TEST(ThetaSolver, EvaluateMatchesMaxOfPathTimes) {
  std::vector<mm::PathTerms> paths{{1.0 / 46e9, 2e-6}, {1.0 / 12e9, 5e-6}};
  std::vector<double> theta{0.7, 0.3};
  const double expected =
      std::max(0.7 * 64e6 / 46e9 + 2e-6, 0.3 * 64e6 / 12e9 + 5e-6);
  EXPECT_DOUBLE_EQ(mm::ThetaSolver::evaluate(paths, theta, 64e6), expected);
}

// ---------------------------------------------------------------------------
// Property sweep (Theorem 1 validation): for random path sets and message
// sizes, the closed-form solution (a) is a valid distribution, (b) has
// equal active-path times, and (c) is never beaten by a dense grid search.
// ---------------------------------------------------------------------------

class ThetaOptimality
    : public ::testing::TestWithParam<std::tuple<int, double, unsigned>> {};

TEST_P(ThetaOptimality, ClosedFormBeatsGridSearch) {
  const auto [n_paths, n_bytes, seed] = GetParam();
  mpath::util::Rng rng(seed);
  std::vector<mm::PathTerms> paths;
  for (int i = 0; i < n_paths; ++i) {
    paths.push_back(mm::PathTerms{1.0 / rng.uniform(5e9, 100e9),
                                  rng.uniform(1e-6, 50e-6)});
  }
  const auto sol = mm::ThetaSolver::solve(paths, n_bytes);

  // (a) valid distribution
  EXPECT_NEAR(sum(sol.theta), 1.0, 1e-9);
  for (double t : sol.theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0 + 1e-12);
  }
  // (b) equalized times on the active set
  EXPECT_LT(mm::ThetaSolver::time_spread(paths, sol.theta, n_bytes),
            1e-6 * sol.predicted_time + 1e-12);

  // (c) no grid point does better (2-path: 1-D grid; 3-path: 2-D grid)
  const int steps = 200;
  double best_grid = std::numeric_limits<double>::infinity();
  if (n_paths == 2) {
    for (int i = 0; i <= steps; ++i) {
      const double t0 = static_cast<double>(i) / steps;
      std::vector<double> theta{t0, 1.0 - t0};
      best_grid = std::min(best_grid,
                           mm::ThetaSolver::evaluate(paths, theta, n_bytes));
    }
  } else {
    for (int i = 0; i <= steps; ++i) {
      for (int j = 0; i + j <= steps; ++j) {
        const double t0 = static_cast<double>(i) / steps;
        const double t1 = static_cast<double>(j) / steps;
        std::vector<double> theta{t0, t1, 1.0 - t0 - t1};
        best_grid = std::min(
            best_grid, mm::ThetaSolver::evaluate(paths, theta, n_bytes));
      }
    }
  }
  EXPECT_LE(sol.predicted_time, best_grid * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThetaOptimality,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(2e6, 16e6, 64e6, 512e6),
                       ::testing::Values(11u, 23u, 37u)));

// ---------------------------------------------------------------------------
// Joint K-transfer solver.
// ---------------------------------------------------------------------------

namespace {

mm::FixedFlow flow(std::initializer_list<std::uint32_t> links, double cap) {
  mm::FixedFlow f;
  for (std::uint32_t l : links) f.links.push_back(l);
  f.cap_bps = cap;
  return f;
}

/// The water-fill over `flows`, copied out of a fresh solver's buffers.
std::vector<double> maxmin(const std::vector<mm::FixedFlow>& flows,
                           const std::vector<mm::JointLink>& links) {
  std::vector<const mm::FixedFlow*> in;
  for (const mm::FixedFlow& f : flows) in.push_back(&f);
  mm::JointThetaSolver solver;
  const auto rates = solver.maxmin_rates(in, links);
  return {rates.begin(), rates.end()};
}

mm::JointPath jpath(double omega, double delta,
                    std::initializer_list<std::uint32_t> links) {
  mm::JointPath p;
  p.terms = mm::PathTerms{omega, delta};
  for (std::uint32_t l : links) p.links.push_back(l);
  return p;
}

}  // namespace

TEST(JointMaxMin, UncontendedFlowsHitTheirCaps) {
  std::vector<mm::JointLink> links{{100e9, 0.0}};
  std::vector<mm::FixedFlow> flows{flow({0}, 40e9), flow({0}, 50e9)};
  const auto rates = maxmin(flows, links);
  EXPECT_DOUBLE_EQ(rates[0], 40e9);
  EXPECT_DOUBLE_EQ(rates[1], 50e9);
}

TEST(JointMaxMin, SharedBottleneckSplitsEqually) {
  std::vector<mm::JointLink> links{{46e9, 0.0}};
  std::vector<mm::FixedFlow> flows{flow({0}, 46e9), flow({0}, 46e9)};
  const auto rates = maxmin(flows, links);
  EXPECT_DOUBLE_EQ(rates[0], 23e9);
  EXPECT_DOUBLE_EQ(rates[1], 23e9);
}

TEST(JointMaxMin, FrozenSlowFlowFreesResidualForFastFlow) {
  // Classic max-min: flow 0 is capped well below its fair share, so flow 1
  // picks up the residual 100 - 10 = 90.
  std::vector<mm::JointLink> links{{100e9, 0.0}};
  std::vector<mm::FixedFlow> flows{flow({0}, 10e9), flow({0}, 1e12)};
  const auto rates = maxmin(flows, links);
  EXPECT_DOUBLE_EQ(rates[0], 10e9);
  EXPECT_DOUBLE_EQ(rates[1], 90e9);
}

TEST(JointMaxMin, BackgroundFlowsConsumeShares) {
  // One planned flow + two background flows on a 90 GB/s link: everyone
  // gets 30.
  std::vector<mm::JointLink> links{{90e9, 2.0}};
  std::vector<mm::FixedFlow> flows{flow({0}, 1e12)};
  const auto rates = maxmin(flows, links);
  EXPECT_DOUBLE_EQ(rates[0], 30e9);
}

TEST(JointMaxMin, MultiHopFlowBottlenecksOnTightestLink) {
  std::vector<mm::JointLink> links{{100e9, 0.0}, {20e9, 0.0}};
  std::vector<mm::FixedFlow> flows{flow({0, 1}, 1e12), flow({0}, 1e12)};
  const auto rates = maxmin(flows, links);
  EXPECT_DOUBLE_EQ(rates[0], 20e9);  // pinned by link 1
  EXPECT_DOUBLE_EQ(rates[1], 80e9);  // residual of link 0
}

TEST(JointMaxMin, RepeatedLinkCountsAsTwoTraversals) {
  // A flow that crosses the same link twice consumes double share there.
  std::vector<mm::JointLink> links{{60e9, 0.0}};
  std::vector<mm::FixedFlow> flows{flow({0, 0}, 1e12), flow({0}, 1e12)};
  const auto rates = maxmin(flows, links);
  // Three traversals on a 60 GB/s link -> a 20 GB/s fair share per
  // traversal; both flows freeze at the shared bottleneck rate, with the
  // double-traversal flow consuming 40 of the 60.
  EXPECT_DOUBLE_EQ(rates[0], 20e9);
  EXPECT_DOUBLE_EQ(rates[1], 20e9);
}

TEST(JointMaxMin, InputValidation) {
  std::vector<mm::JointLink> links{{46e9, 0.0}};
  std::vector<mm::FixedFlow> bad_cap{flow({0}, 0.0)};
  EXPECT_THROW((void)maxmin(bad_cap, links),
               std::invalid_argument);
  std::vector<mm::FixedFlow> bad_link{flow({7}, 10e9)};
  EXPECT_THROW((void)maxmin(bad_link, links),
               std::invalid_argument);
  std::vector<mm::JointLink> bad_cap_link{{0.0, 0.0}};
  std::vector<mm::FixedFlow> ok{flow({0}, 10e9)};
  EXPECT_THROW((void)maxmin(ok, bad_cap_link),
               std::invalid_argument);
}

// Background weights need not be dyadic. With weights in tenths, freezing a
// bottleneck's flows and background can leave a rounding residue of
// unfrozen weight on the link; the water-fill must still retire the link
// and return, with every rate within its cap and every link within its
// capacity.
TEST(JointMaxMin, FractionalBackgroundTerminatesWithinCaps) {
  mm::JointThetaSolver solver;
  for (const std::uint64_t seed : {7ull, 19ull, 31ull}) {
    mpath::util::Rng rng(seed);
    for (int call = 0; call < 2000; ++call) {
      const std::int64_t nl = rng.uniform_int(1, 16);
      std::vector<mm::JointLink> links;
      for (std::int64_t l = 0; l < nl; ++l) {
        links.push_back({rng.uniform(1e9, 120e9),
                         static_cast<double>(rng.uniform_int(0, 30)) / 10.0});
      }
      std::vector<mm::FixedFlow> flows(
          static_cast<std::size_t>(rng.uniform_int(0, 64)));
      for (mm::FixedFlow& f : flows) {
        const std::int64_t hops = rng.uniform_int(0, 3);
        for (std::int64_t h = 0; h < hops; ++h) {
          f.links.push_back(
              static_cast<std::uint32_t>(rng.uniform_int(0, nl - 1)));
        }
        f.cap_bps = rng.uniform(0.5e9, 200e9);
      }
      std::vector<const mm::FixedFlow*> in;
      for (const mm::FixedFlow& f : flows) in.push_back(&f);

      const auto rates = solver.maxmin_rates(in, links);
      ASSERT_EQ(rates.size(), flows.size());
      std::vector<double> load(links.size(), 0.0);
      for (std::size_t f = 0; f < flows.size(); ++f) {
        ASSERT_GE(rates[f], 0.0) << "seed " << seed << " call " << call;
        ASSERT_LE(rates[f], flows[f].cap_bps)
            << "seed " << seed << " call " << call;
        for (std::uint32_t l : flows[f].links) load[l] += rates[f];
      }
      for (std::size_t l = 0; l < links.size(); ++l) {
        ASSERT_LE(load[l], links[l].capacity_bps * (1.0 + 1e-9))
            << "seed " << seed << " call " << call << " link " << l;
      }
    }
  }
}

TEST(JointTheta, SingleTransferReducesToClosedFormExactly) {
  // K=1 with links that never bind: bit-for-bit identical to Eq. 24.
  std::vector<mm::JointLink> links{{200e9, 0.0}, {200e9, 0.0}};
  std::vector<mm::JointPath> paths{jpath(1.0 / 46e9, 2e-6, {0}),
                                   jpath(1.0 / 40e9, 8e-6, {1}),
                                   jpath(1.0 / 11e9, 20e-6, {0, 1})};
  std::vector<mm::JointTransfer> transfers{{256e6, paths}};
  const auto joint = mm::JointThetaSolver().solve(transfers, {}, links);
  std::vector<mm::PathTerms> terms;
  for (const auto& p : paths) terms.push_back(p.terms);
  const auto solo = mm::ThetaSolver::solve(terms, 256e6);
  ASSERT_EQ(joint.transfers.size(), 1u);
  ASSERT_EQ(joint.transfers[0].theta.size(), solo.theta.size());
  for (std::size_t i = 0; i < solo.theta.size(); ++i) {
    EXPECT_DOUBLE_EQ(joint.transfers[0].theta[i], solo.theta[i]);
  }
  EXPECT_DOUBLE_EQ(joint.transfers[0].predicted_time, solo.predicted_time);
  EXPECT_EQ(joint.iterations, 1);
}

TEST(JointTheta, TwoTransfersOnSharedLinkDoublePredictedTime) {
  // Two identical single-path transfers squeeze through one link sized for
  // exactly one of them: each gets half the bandwidth, so the predicted
  // time is the solo time with Omega doubled.
  const double omega = 1.0 / 46e9;
  std::vector<mm::JointLink> links{{46e9, 0.0}};
  std::vector<mm::JointPath> paths{jpath(omega, 2e-6, {0})};
  std::vector<mm::JointTransfer> transfers{{64e6, paths}, {64e6, paths}};
  const auto joint = mm::JointThetaSolver().solve(transfers, {}, links);
  const double expected = 2e-6 + 64e6 / 23e9;
  for (const auto& t : joint.transfers) {
    ASSERT_EQ(t.theta.size(), 1u);
    EXPECT_DOUBLE_EQ(t.theta[0], 1.0);
    EXPECT_NEAR(t.predicted_time, expected, 1e-12);
  }
  EXPECT_DOUBLE_EQ(joint.path_rates[0][0], 23e9);
  EXPECT_DOUBLE_EQ(joint.path_rates[1][0], 23e9);
}

TEST(JointTheta, ContentionShiftsShareToUncontestedPath) {
  // Transfer 0 has a private path (link 1) and a shared path (link 0).
  // Transfer 1 hammers link 0. Jointly, transfer 0 must lean on link 1
  // harder than its solo split would.
  std::vector<mm::JointLink> links{{46e9, 0.0}, {46e9, 0.0}};
  std::vector<mm::JointPath> a{jpath(1.0 / 46e9, 2e-6, {1}),
                               jpath(1.0 / 46e9, 2e-6, {0})};
  std::vector<mm::JointPath> b{jpath(1.0 / 46e9, 2e-6, {0})};
  std::vector<mm::JointTransfer> transfers{{128e6, a}, {128e6, b}};
  const auto joint = mm::JointThetaSolver().solve(transfers, {}, links);

  std::vector<mm::PathTerms> solo_terms{a[0].terms, a[1].terms};
  const auto solo = mm::ThetaSolver::solve(solo_terms, 128e6);
  EXPECT_GT(joint.transfers[0].theta[0], solo.theta[0]);
  // And the contended transfer is predicted slower than a solo run.
  const double solo_b = 2e-6 + 128e6 / 46e9;
  EXPECT_GT(joint.transfers[1].predicted_time, solo_b);
}

TEST(JointTheta, FixedFlowsActAsContention) {
  // A fixed in-flight flow on the link halves a K=1 transfer's bandwidth.
  std::vector<mm::JointLink> links{{46e9, 0.0}};
  std::vector<mm::JointPath> paths{jpath(1.0 / 46e9, 2e-6, {0})};
  std::vector<mm::JointTransfer> transfers{{64e6, paths}};
  const mm::FixedFlow fixed = flow({0}, 46e9);
  const std::vector<const mm::FixedFlow*> in_flight{&fixed};
  const auto joint = mm::JointThetaSolver().solve(transfers, in_flight, links);
  EXPECT_NEAR(joint.transfers[0].predicted_time, 2e-6 + 64e6 / 23e9, 1e-12);
  ASSERT_EQ(joint.fixed_rates.size(), 1u);
  EXPECT_DOUBLE_EQ(joint.fixed_rates[0], 23e9);
}

TEST(JointTheta, ContendedStagedPathDroppedForSmallMessage) {
  // The staged path is only worth its Delta when it delivers real
  // bandwidth; under heavy contention its effective Omega balloons and the
  // per-transfer re-solve must drop it (theta = 0, rate released).
  std::vector<mm::JointLink> links{{46e9, 0.0}, {46e9, 20.0}};
  std::vector<mm::JointPath> paths{jpath(1.0 / 46e9, 2e-6, {0}),
                                   jpath(1.0 / 40e9, 60e-6, {1})};
  std::vector<mm::JointTransfer> transfers{{1e6, paths}};
  const auto joint = mm::JointThetaSolver().solve(transfers, {}, links);
  EXPECT_DOUBLE_EQ(joint.transfers[0].theta[0], 1.0);
  EXPECT_DOUBLE_EQ(joint.transfers[0].theta[1], 0.0);
  EXPECT_DOUBLE_EQ(joint.path_rates[0][1], 0.0);
  EXPECT_GE(joint.iterations, 2);  // one drop round + one stable round
}

TEST(JointTheta, DeterministicAcrossRepeatedSolves) {
  std::vector<mm::JointLink> links{{46e9, 1.0}, {30e9, 0.0}, {90e9, 2.0}};
  std::vector<mm::JointPath> a{jpath(1.0 / 46e9, 2e-6, {0}),
                               jpath(1.0 / 23e9, 10e-6, {1, 2})};
  std::vector<mm::JointPath> b{jpath(1.0 / 30e9, 3e-6, {1}),
                               jpath(1.0 / 46e9, 6e-6, {0, 2})};
  std::vector<mm::JointTransfer> transfers{{96e6, a}, {32e6, b}};
  // One solver instance: the second solve reuses the first's buffers.
  mm::JointThetaSolver solver;
  const auto first = solver.solve(transfers, {}, links);
  const auto second = solver.solve(transfers, {}, links);
  ASSERT_EQ(first.transfers.size(), second.transfers.size());
  for (std::size_t k = 0; k < first.transfers.size(); ++k) {
    for (std::size_t i = 0; i < first.transfers[k].theta.size(); ++i) {
      EXPECT_DOUBLE_EQ(first.transfers[k].theta[i],
                       second.transfers[k].theta[i]);
    }
    EXPECT_DOUBLE_EQ(first.transfers[k].predicted_time,
                     second.transfers[k].predicted_time);
  }
}

TEST(JointTheta, InputValidation) {
  std::vector<mm::JointLink> links{{46e9, 0.0}};
  std::vector<mm::JointPath> none;
  std::vector<mm::JointTransfer> empty_paths{{64e6, none}};
  EXPECT_THROW((void)mm::JointThetaSolver().solve(empty_paths, {}, links),
               std::invalid_argument);
  std::vector<mm::JointPath> ok{jpath(1.0 / 46e9, 2e-6, {0})};
  std::vector<mm::JointTransfer> bad_bytes{{0.0, ok}};
  EXPECT_THROW((void)mm::JointThetaSolver().solve(bad_bytes, {}, links),
               std::invalid_argument);
  std::vector<mm::JointPath> bad_omega{jpath(0.0, 2e-6, {0})};
  std::vector<mm::JointTransfer> bad{{64e6, bad_omega}};
  EXPECT_THROW((void)mm::JointThetaSolver().solve(bad, {}, links),
               std::invalid_argument);
}
