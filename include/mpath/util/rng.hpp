// Deterministic RNG wrapper. Every stochastic element of the simulator
// (measurement jitter, workload payloads) draws from a seeded Rng so that
// benchmark runs are exactly reproducible.
//
// Rng's engine and jitter() reproduce std::mt19937_64 and libstdc++'s
// std::normal_distribution value for value, without the two data-dependent
// branches the library versions take: jitter draws are the simulator's
// largest host cost (DESIGN.md, "Jitter stream"). uniform() and
// uniform_int() run the standard distributions on the same engine.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace mpath::util {

/// MT19937-64 with std::mt19937_64's seeding, recurrence, tempering and
/// output sequence. The refill picks the twist constant with a mask instead
/// of branching on each word's low bit. A UniformRandomBitGenerator over
/// [0, 2^64 − 1].
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = kF * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ == kN) refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;  // state words
  static constexpr std::size_t kM = 156;  // twist offset
  static constexpr result_type kA = 0xB5026F5AA96619E9ull;
  static constexpr result_type kF = 6364136223846793005ull;
  static constexpr result_type kUpper = ~result_type{0} << 31;

  /// `far` twisted with the upper bits of `hi` and the lower 31 of `lo`.
  static result_type twist(result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ (kA & (0 - (y & 1)));
  }

  void refill() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::array<result_type, kN> x_{};
  std::size_t p_ = kN;
};

/// What std::generate_canonical<double, 53> returns for the 64-bit word x:
/// x·2^-64, clamped below 1. Both 32-bit halves convert to double exactly,
/// so the sum is rounded once and equals static_cast<double>(x), without
/// the sign-bit branch of the uint64 conversion.
inline double canonical(std::uint64_t x) {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(x >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(x));
  const double u = (hi * 0x1p32 + lo) * 0x1p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // std::nextafter(1.0, 0.0)
}

/// Rng::jitter on the 64-bit words of `gen`: Marsaglia's polar method,
/// step for step as a fresh std::normal_distribution<double>(1, rel_sigma)
/// takes it in libstdc++, so the value and the words consumed equal the
/// library's. Keep `x * x + y * y` and `... * rel_sigma + 1.0` as written:
/// a contracted (FMA) form rounds differently.
template <class Gen>
double jitter_from(Gen& gen, double rel_sigma) {
  for (;;) {
    const double x = 2.0 * canonical(gen()) - 1.0;
    const double y = 2.0 * canonical(gen()) - 1.0;
    const double r2 = x * x + y * y;
    if (r2 > 1.0 || r2 == 0.0) continue;
    if (rel_sigma <= 0.0) return 1.0;
    const double j = y * std::sqrt(-2 * std::log(r2) / r2) * rel_sigma + 1.0;
    return j > 0.01 ? j : 0.01;
  }
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : gen_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(gen_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(gen_);
  }

  /// Multiplicative jitter: 1 + a normal draw of standard deviation
  /// `rel_sigma`, clamped at 0.01. A `rel_sigma` <= 0 means no jitter: the
  /// result is exactly 1, and the generator still advances as it does for
  /// any positive sigma, so turning jitter off never shifts later draws.
  double jitter(double rel_sigma) { return jitter_from(gen_, rel_sigma); }

  Mt19937_64& engine() { return gen_; }

 private:
  Mt19937_64 gen_;
};

}  // namespace mpath::util
