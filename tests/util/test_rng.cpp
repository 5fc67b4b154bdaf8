#include "mpath/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
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

namespace {

/// The draw count after which a stream has just queued a fill of its spare
/// batch, first past `drawn`: its last own batch of kBatch, which ends at
/// kSelfDraws, queues the first fill, and each batch of kFillBatch it takes
/// from the filler queues the next.
std::uint64_t next_handoff(std::uint64_t drawn) {
  const std::uint64_t first =
      mu::JitterStream::kSelfDraws - mu::JitterStream::kBatch + 1;
  if (drawn < first) return first;
  std::uint64_t at = mu::JitterStream::kSelfDraws + 1;
  while (at <= drawn) at += mu::JitterStream::kFillBatch;
  return at;
}

}  // namespace

// Streams past their young phase share the process's one filler thread.
// Several threads each draw from many streams with distinct seeds and
// destroy them at random points: some right after a hand-off, while the
// filler has the stream's spare queued or is filling it, others anywhere.
// Every draw must still equal its Rng twin's, bit for bit.
TEST(JitterFiller, ConcurrentStreamsMatchScalarDrawsBitForBit) {
  constexpr int kThreads = 4;
  constexpr int kLive = 6;  // streams each thread draws from at once
  constexpr int kRounds = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      struct Live {
        std::unique_ptr<mu::JitterStream> stream;
        mu::Rng twin;
        std::uint64_t seed = 0;
        std::uint64_t drawn = 0;
      };
      mu::Rng pick(1000 + static_cast<std::uint64_t>(t));
      std::uint64_t next_seed = static_cast<std::uint64_t>(t) << 32;
      const auto fresh = [&next_seed] {
        const std::uint64_t seed = next_seed++;
        return Live{std::make_unique<mu::JitterStream>(seed), mu::Rng(seed),
                    seed, 0};
      };
      std::vector<Live> live;
      for (int i = 0; i < kLive; ++i) live.push_back(fresh());
      for (int r = 0; r < kRounds; ++r) {
        Live& l =
            live[static_cast<std::size_t>(pick.uniform_int(0, kLive - 1))];
        const bool to_handoff = pick.uniform_int(0, 3) == 0;
        const std::uint64_t until =
            to_handoff ? next_handoff(l.drawn)
                       : l.drawn + static_cast<std::uint64_t>(
                                       pick.uniform_int(1, 3000));
        for (; l.drawn < until; ++l.drawn) {
          const double sigma = 0.02 + 0.01 * static_cast<double>(l.drawn % 3);
          const double got = l.stream->next(sigma);
          const double want = l.twin.jitter(sigma);
          if (std::memcmp(&got, &want, sizeof got) != 0) {
            ADD_FAILURE() << "seed " << l.seed << " draw " << l.drawn << ": "
                          << got << " vs " << want;
            return;
          }
        }
        if (to_handoff || pick.uniform_int(0, 3) == 0) l = fresh();
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

// While an OwnFills is alive, streams fill their own batches: one already
// past its young phase takes its queued fill back and queues none, and one
// that leaves its young phase then queues none either. Once the last
// OwnFills goes, both hand batches to the filler again. No value changes.
TEST(JitterFiller, OwnFillsKeepDrawsBitForBit) {
  struct Twinned {
    mu::JitterStream stream;
    mu::Rng twin;
    explicit Twinned(std::uint64_t seed) : stream(seed), twin(seed) {}
    void draw(int n) {
      for (int i = 0; i < n; ++i) {
        const double got = stream.next(0.03);
        const double want = twin.jitter(0.03);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "draw " << i;
      }
    }
  };
  Twinned adult(21);
  adult.draw(10'000);
  {
    const mu::JitterStream::OwnFills own;
    EXPECT_FALSE(mu::JitterStream::fills_ahead());
    Twinned young(22);
    adult.draw(10'000);
    young.draw(10'000);
    {
      const mu::JitterStream::OwnFills nested;
      adult.draw(5'000);
    }
    EXPECT_FALSE(mu::JitterStream::fills_ahead());
    adult.draw(5'000);
    young.draw(5'000);
    {
      const mu::JitterStream::OwnFills gone;
    }
    EXPECT_FALSE(mu::JitterStream::fills_ahead());
  }
  EXPECT_TRUE(mu::JitterStream::fills_ahead());
  adult.draw(10'000);
  Twinned after(23);
  after.draw(10'000);
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
