// Deterministic randomness. Every stochastic element of the simulator
// (measurement jitter, workload payloads, generated scenarios) is a pure
// function of a seed, so benchmark runs are exactly reproducible.
//
// Rng is a seeded std::mt19937_64 with the standard distributions on it,
// for workloads and generators that take draws in sequence. Jitter draws
// take no sequence at all: keyed_jitter() is a pure function of a key, so
// the simulator keys each draw by the op it scales (DESIGN.md, "Keyed
// jitter") and no reordering of events can move a value.
#pragma once

#include <cstdint>
#include <random>

namespace mpath::util {

/// splitmix64: the finalizer of `seed` advanced by `index + 1` golden-ratio
/// steps. Distinct indices under one seed give distinct, well-spread words,
/// so every derived seed and jitter key comes from here.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t seed,
                                               std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Multiplicative jitter keyed by (`key`, `index`): 1 + σ·z for a standard
/// normal z read off mix_seed(key, index), clamped at 0.01. The word's top
/// 12 bits pick one of 4,096 cells between the knots of an inverse normal
/// CDF table and its low 52 bits interpolate linearly inside the cell, so
/// z is cut at ±3.67 (the outermost knots). A `rel_sigma` <= 0 means no
/// jitter: exactly 1, without hashing.
[[nodiscard]] double keyed_jitter(std::uint64_t key, std::uint64_t index,
                                  double rel_sigma);

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

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace mpath::util
