// Deterministic RNG wrapper. Every stochastic element of the simulator
// (measurement jitter, workload payloads) draws from a seeded Rng so that
// benchmark runs are exactly reproducible.
#pragma once

#include <cstdint>
#include <random>

namespace mpath::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : gen_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(gen_);
  }

  /// Gaussian with given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(gen_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(gen_);
  }

  /// Multiplicative jitter: 1 + gaussian(0, rel_sigma), clamped positive.
  /// A `rel_sigma` <= 0 means no jitter: the result is exactly 1, and the
  /// generator still advances as it does for any positive sigma, so turning
  /// jitter off never shifts later draws.
  double jitter(double rel_sigma) {
    if (rel_sigma <= 0.0) {
      // normal_distribution requires sigma > 0. A standard normal consumes
      // the generator exactly as N(1, sigma) does.
      (void)gaussian(0.0, 1.0);
      return 1.0;
    }
    const double j = gaussian(1.0, rel_sigma);
    return j > 0.01 ? j : 0.01;
  }

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace mpath::util
