#include "mpath/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

namespace mu = mpath::util;

namespace {

/// True when copies of `a` and `b` give the same next `n` outputs (n > 312
/// crosses a refill). The copies leave both generators where they were.
template <class A, class B>
::testing::AssertionResult SameNextOutputs(A a, B b, int n = 1000) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = a();
    const std::uint64_t y = b();
    if (x != y) {
      return ::testing::AssertionFailure()
             << "output " << i << ": " << x << " vs " << y;
    }
  }
  return ::testing::AssertionSuccess();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

// Keyed draws are N(1, σ) cut at ±3.67σ by the table's outermost knots, so
// their spread reads slightly under σ; the two-σ tails keep their share.
TEST(KeyedJitter, MomentsMatchNormal) {
  constexpr double kSigma = 0.02;
  constexpr std::uint64_t kDraws = 1'000'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::uint64_t beyond_two_sigma = 0;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const double z = (mu::keyed_jitter(42, i, kSigma) - 1.0) / kSigma;
    sum += z;
    sum_sq += z * z;
    if (std::abs(z) > 2.0) ++beyond_two_sigma;
  }
  const double n = static_cast<double>(kDraws);
  const double mean = sum / n;
  const double sd = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_LE(std::abs(mean), 0.005);  // |mean − 1| ≤ 0.005σ
  EXPECT_LE(std::abs(sd - 1.0), 0.005);
  const double tails = static_cast<double>(beyond_two_sigma) / n;
  EXPECT_NEAR(tails, 0.0455, 0.1 * 0.0455);

  for (const double sigma : {0.0, -0.01}) {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      ASSERT_EQ(mu::keyed_jitter(7, i, sigma), 1.0) << "sigma " << sigma;
    }
  }

  int clamped = 0;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    const double j = mu::keyed_jitter(9, i, 1.0);
    ASSERT_GE(j, 0.01) << "draw " << i;
    if (j == 0.01) ++clamped;
  }
  EXPECT_GT(clamped, 0) << "sigma 1 never reached the 0.01 clamp";
}

// perfbench shuffles with Rng::engine() and draws its tenant traces with
// uniform() and uniform_int(), and the fuzz generator draws its topologies
// with them: all of them must stay std::mt19937_64's outputs.
TEST(Rng, UniformsMatchStdDistributionsBitForBit) {
  constexpr std::uint64_t kSeeds[] = {0, 1, 7, ~std::uint64_t{0}};
  constexpr std::int64_t kIntRanges[][2] = {
      {0, 1},
      {-3, 7},
      {0, 999'999'999'999},
      {std::numeric_limits<std::int64_t>::min(),
       std::numeric_limits<std::int64_t>::max()}};
  for (const std::uint64_t seed : kSeeds) {
    mu::Rng rng(seed);
    std::mt19937_64 twin(seed);
    for (int i = 0; i < 50'000; ++i) {
      const double lo = 0.25 * (i % 5) - 1.0;
      const double hi = lo + 0.5 + i % 3;
      std::uniform_real_distribution<double> u(lo, hi);
      const double ug = rng.uniform(lo, hi);
      const double uw = u(twin);
      ASSERT_TRUE(same_bits(ug, uw)) << "seed " << seed << " uniform " << i;
      const auto& r = kIntRanges[i % 4];
      std::uniform_int_distribution<std::int64_t> d(r[0], r[1]);
      ASSERT_EQ(rng.uniform_int(r[0], r[1]), d(twin))
          << "seed " << seed << " uniform_int " << i;
    }
    ASSERT_TRUE(SameNextOutputs(rng.engine(), twin)) << "seed " << seed;
  }
}

TEST(Rng, EngineShufflesLikeStdMt19937_64) {
  for (const std::uint64_t seed : {std::uint64_t{7}, ~std::uint64_t{0}}) {
    std::vector<int> a(1000);
    std::iota(a.begin(), a.end(), 0);
    std::vector<int> b = a;
    mu::Rng rng(seed);
    std::mt19937_64 twin(seed);
    std::shuffle(a.begin(), a.end(), rng.engine());
    std::shuffle(b.begin(), b.end(), twin);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_TRUE(SameNextOutputs(rng.engine(), twin)) << "seed " << seed;
  }
}
