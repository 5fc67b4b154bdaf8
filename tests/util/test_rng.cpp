#include "mpath/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

namespace mu = mpath::util;

// perfbench shuffles with Rng::engine(), so it stays a standard generator of
// full 64-bit words.
static_assert(std::uniform_random_bit_generator<mu::Mt19937_64>);
static_assert(mu::Mt19937_64::min() == 0);
static_assert(mu::Mt19937_64::max() ==
              std::numeric_limits<std::uint64_t>::max());

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

}  // namespace

TEST(Rng, ZeroAndPositiveSigmaConsumeTheGeneratorAlike) {
  mu::Rng off(5);
  mu::Rng on(5);
  for (int i = 0; i < 1000; ++i) {
    (void)off.jitter(0.0);
    const double j = on.jitter(0.01);
    EXPECT_GT(j, 0.9);
    EXPECT_LT(j, 1.1);
  }
  EXPECT_TRUE(SameNextOutputs(off.engine(), on.engine()));
  EXPECT_EQ(off.uniform(0.0, 1.0), on.uniform(0.0, 1.0));
}

// GpuRuntime draws its jitter through a JitterStream, whose refills take
// the draws of a whole batch ahead of use: each value must still equal the
// scalar draw of a twin Rng, with sigma changing from one draw to the next.
TEST(Rng, JitterStreamMatchesScalarJitterBitForBit) {
  constexpr std::uint64_t kSeeds[] = {0, 1, 7, ~std::uint64_t{0}};
  constexpr double kSigmas[] = {0.02, 0.05, 0.4};
  constexpr int kDraws = 300'000;  // over 1,000 refills of 256 draws
  for (const std::uint64_t seed : kSeeds) {
    mu::JitterStream stream(seed);
    mu::Rng twin(seed);
    int clamped = 0;
    for (int i = 0; i < kDraws; ++i) {
      const double sigma = kSigmas[i % 3];
      const double got = stream.next(sigma);
      const double want = twin.jitter(sigma);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "seed " << seed << " draw " << i << " sigma " << sigma << ": "
          << got << " vs " << want;
      if (got == 0.01) ++clamped;
    }
    EXPECT_GT(clamped, 0) << "seed " << seed
                          << ": sigma 0.4 never reached the 0.01 clamp";
  }
}

// The tests below compare against libstdc++'s own engine and distributions,
// whose algorithms util::Rng reproduces.
#if defined(__GLIBCXX__)

namespace {

/// Replays `words`, then continues with a std::mt19937_64.
class Script {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Script(std::vector<result_type> words) : words_(std::move(words)) {}
  result_type operator()() {
    return next_ < words_.size() ? words_[next_++] : tail_();
  }

 private:
  std::vector<result_type> words_;
  std::size_t next_ = 0;
  std::mt19937_64 tail_{3};
};

/// What Rng::jitter must return, drawn through a fresh
/// std::normal_distribution on `gen`: N(1, sigma) clamped at 0.01, or a
/// discarded N(0, 1) and exactly 1 for sigma <= 0.
template <class Gen>
double reference_jitter(Gen& gen, double sigma) {
  if (sigma <= 0.0) {
    std::normal_distribution<double> d(0.0, 1.0);
    (void)d(gen);
    return 1.0;
  }
  std::normal_distribution<double> d(1.0, sigma);
  const double j = d(gen);
  return j > 0.01 ? j : 0.01;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

TEST(Rng, NoJitterIsOneAndAdvancesLikeAnyDraw) {
  // A twin generator drawing standard normals stays in step with
  // jitter(sigma <= 0): same engine state after every draw, so a run with
  // jitter off consumes the generator exactly like a run with jitter on.
  for (const double sigma : {0.0, -0.01}) {
    mu::Rng rng(11);
    std::mt19937_64 twin(11);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rng.jitter(sigma), 1.0) << "sigma " << sigma << " draw " << i;
      std::normal_distribution<double> d(0.0, 1.0);
      (void)d(twin);
      ASSERT_TRUE(SameNextOutputs(rng.engine(), twin))
          << "sigma " << sigma << " draw " << i;
    }
  }
}

TEST(Rng, JitterAndUniformsMatchStdDistributionsBitForBit) {
  constexpr std::uint64_t kSeeds[] = {0, 1, 7, ~std::uint64_t{0}};
  constexpr double kSigmas[] = {0.02, 0.05, 0.4, 0.0, -0.01};
  constexpr int kDrawsPerCase = 50'000;  // 4 seeds x 5 sigmas: 10^6 jitters
  constexpr std::int64_t kIntRanges[][2] = {
      {0, 1},
      {-3, 7},
      {0, 999'999'999'999},
      {std::numeric_limits<std::int64_t>::min(),
       std::numeric_limits<std::int64_t>::max()}};
  int clamped = 0;
  for (const std::uint64_t seed : kSeeds) {
    for (const double sigma : kSigmas) {
      mu::Rng rng(seed);
      std::mt19937_64 twin(seed);
      for (int i = 0; i < kDrawsPerCase; ++i) {
        const double got = rng.jitter(sigma);
        const double want = reference_jitter(twin, sigma);
        ASSERT_TRUE(same_bits(got, want))
            << "seed " << seed << " sigma " << sigma << " draw " << i << ": "
            << got << " vs " << want;
        if (got == 0.01) ++clamped;
        if (i % 7 == 0) {
          const double lo = 0.25 * (i % 5) - 1.0;
          const double hi = lo + 0.5 + i % 3;
          std::uniform_real_distribution<double> u(lo, hi);
          const double ug = rng.uniform(lo, hi);
          const double uw = u(twin);
          ASSERT_TRUE(same_bits(ug, uw))
              << "seed " << seed << " uniform after draw " << i;
          const auto& r = kIntRanges[i % 4];
          std::uniform_int_distribution<std::int64_t> n(r[0], r[1]);
          ASSERT_EQ(rng.uniform_int(r[0], r[1]), n(twin))
              << "seed " << seed << " uniform_int after draw " << i;
        }
      }
      ASSERT_TRUE(SameNextOutputs(rng.engine(), twin))
          << "seed " << seed << " sigma " << sigma;
    }
  }
  EXPECT_GT(clamped, 0) << "sigma 0.4 never reached the 0.01 clamp";

  // Words no seed reaches in practice: x = y = 0 exactly (r2 == 0, which
  // must be rejected), x = y = -1 (r2 > 1), the r2 == 1 boundary (accepted,
  // the factor is 0) and words that round up to 1 before the clamp.
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  const std::vector<std::vector<std::uint64_t>> scripts = {
      {kHalf, kHalf},
      {kHalf - 512, kHalf + 1024},
      {0, 0},
      {0, kHalf},
      {kHalf, 0},
      {kTop, kTop},
      {kTop, kHalf},
      {kTop - 1023, 12345}};
  for (const double sigma : kSigmas) {
    for (std::size_t s = 0; s < scripts.size(); ++s) {
      Script a(scripts[s]);
      Script b(scripts[s]);
      const double got = mu::jitter_from(a, sigma);
      const double want = reference_jitter(b, sigma);
      ASSERT_TRUE(same_bits(got, want))
          << "script " << s << " sigma " << sigma << ": " << got << " vs "
          << want;
      ASSERT_TRUE(SameNextOutputs(a, b, 10)) << "script " << s;
    }
  }
}

TEST(Rng, CanonicalMatchesTheUint64Conversion) {
  const auto reference = [](std::uint64_t x) {
    const double u = static_cast<double>(x) / 0x1p64;
    return u < 1.0 ? u : std::nextafter(1.0, 0.0);
  };
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  std::vector<std::uint64_t> words = {0,
                                      1,
                                      k53 - 1,
                                      k53,
                                      k53 + 1,
                                      k63 - 1,
                                      k63,
                                      k63 + 1,
                                      k63 - 512,
                                      k63 + 1024,
                                      k63 + 3072,
                                      kTop - 2047,  // 2^64 − 2^11
                                      kTop - 1024,
                                      kTop - 1023,
                                      kTop};
  std::mt19937_64 gen(17);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t w = gen();
    words.push_back(w);
    words.push_back(w >> (i % 64));  // every magnitude
  }
  for (const std::uint64_t x : words) {
    const double got = mu::canonical(x);
    const double want = reference(x);
    ASSERT_TRUE(same_bits(got, want)) << "x " << x << ": " << got << " vs "
                                      << want;
  }
  // And the library's own canonical draw on a generator of such words.
  Script twin(words);
  for (const std::uint64_t x : words) {
    const double want = std::generate_canonical<double, 53>(twin);
    ASSERT_TRUE(same_bits(mu::canonical(x), want)) << "x " << x;
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

#endif  // __GLIBCXX__
