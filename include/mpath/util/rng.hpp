// Deterministic RNG wrapper. Every stochastic element of the simulator
// (measurement jitter, workload payloads) draws from a seeded Rng so that
// benchmark runs are exactly reproducible.
//
// Rng's engine and jitter() reproduce std::mt19937_64 and libstdc++'s
// std::normal_distribution value for value, without the two data-dependent
// branches the library versions take: jitter draws are the simulator's
// largest host cost (DESIGN.md, "Jitter stream"). uniform() and
// uniform_int() run the standard distributions on the same engine.
// JitterStream takes the same jitter draws in batches, on an engine of its
// own. Past a stream's first JitterStream::kSelfDraws draws, one
// process-wide filler thread fills its next batch while its owner reads the
// current one, and no value changes.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
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

/// One trial of Marsaglia's polar method on two words of a generator: the
/// point (x, y) = 2u − 1 of two canonical draws, kept as y and r2 = x² + y².
/// jitter_from and JitterStream take every draw through it.
struct PolarPoint {
  double y = 0.0;
  double r2 = 0.0;

  /// Inside the unit circle and not the origin, as libstdc++ accepts.
  [[nodiscard]] bool accepted() const { return !(r2 > 1.0 || r2 == 0.0); }
  /// The σ-free part of an accepted draw: libstdc++'s `y * mult`.
  [[nodiscard]] double factor() const {
    return y * std::sqrt(-2 * std::log(r2) / r2);
  }
};

/// The next trial on `gen`. Keep `x * x + y * y` as written: a contracted
/// (FMA) form rounds differently.
template <class Gen>
PolarPoint polar_point(Gen& gen) {
  const double x = 2.0 * canonical(gen()) - 1.0;
  const double y = 2.0 * canonical(gen()) - 1.0;
  return {y, x * x + y * y};
}

/// A draw's jitter at `rel_sigma` > 0: N(1, σ) from its σ-free `factor`,
/// clamped at 0.01. Keep `factor * rel_sigma + 1.0` unfused, as above.
inline double jitter_at(double factor, double rel_sigma) {
  const double j = factor * rel_sigma + 1.0;
  return j > 0.01 ? j : 0.01;
}

/// Rng::jitter on the 64-bit words of `gen`: Marsaglia's polar method,
/// step for step as a fresh std::normal_distribution<double>(1, rel_sigma)
/// takes it in libstdc++, so the value and the words consumed equal the
/// library's.
template <class Gen>
double jitter_from(Gen& gen, double rel_sigma) {
  PolarPoint p = polar_point(gen);
  while (!p.accepted()) p = polar_point(gen);
  if (rel_sigma <= 0.0) return 1.0;
  return jitter_at(p.factor(), rel_sigma);
}

class JitterFiller;  // the process's filler thread (rng.cpp)

/// Rng::jitter's draws taken in batches. A batch is the next run of draws
/// on the stream's own engine, filled in passes of kBatch: first the
/// accept/reject scan over word pairs, then the log/sqrt/div pass that
/// turns each accepted point into its σ-free factor, so the logs run back
/// to back instead of one between every two simulator events. next(σ)
/// scales one factor by σ and clamps it as jitter_from does, so the n-th
/// value equals the n-th Rng::jitter(σ) of an Rng seeded alike, bit for
/// bit, whatever σ > 0 each call passes.
///
/// A young stream fills its own batches of kBatch draws. Once it has
/// filled kSelfDraws, it keeps a spare batch of kFillBatch draws, and the
/// process's one filler thread fills the spare with the next run of draws
/// while next() reads the current batch. At the end of a batch next()
/// takes the spare if it is filled, fills it itself if the filler has not
/// started on it, and waits only while the filler is filling it. Values
/// cannot change: only one party advances the engine at a time, and where
/// a batch begins does not change the sequence of draws. The filler holds
/// the stream's address, so a stream is neither copied nor moved, and its
/// destructor withdraws a queued fill and waits for one in flight. While
/// an OwnFills is alive, streams queue no fills and fill their own spares.
///
/// The engine is the stream's own: a batch takes its words ahead of use,
/// so anything else reading that engine would see them out of order.
/// (That is also why this is not a buffer inside Rng, whose uniform() and
/// engine() share its engine.) A stream belongs to one thread, as the
/// runtime that draws from it does.
class JitterStream {
 public:
  /// Draws per pass of a fill, and per batch of a young stream.
  static constexpr std::size_t kBatch = 256;
  /// Draws a stream fills itself before the filler takes over, so that a
  /// short-lived stream never touches the filler thread.
  static constexpr std::size_t kSelfDraws = 4096;
  /// Draws per batch past kSelfDraws, each filled by the filler thread
  /// unless next() reaches it first.
  static constexpr std::size_t kFillBatch = 2048;

  explicit JitterStream(std::uint64_t seed) : gen_(seed) {}
  JitterStream(const JitterStream&) = delete;
  JitterStream& operator=(const JitterStream&) = delete;
  ~JitterStream();

  /// While one is alive, every stream fills its own batches and none
  /// starts the filler thread. A caller that keeps every core busy with
  /// simulation threads holds one, since the filler could then only take
  /// CPU time from them. Values are the same either way.
  class OwnFills {
   public:
    OwnFills();
    OwnFills(const OwnFills&) = delete;
    OwnFills& operator=(const OwnFills&) = delete;
    ~OwnFills();
  };

  /// Whether streams hand their batches to the filler thread now: true
  /// unless an OwnFills is alive.
  static bool fills_ahead();

  /// The next draw at `rel_sigma` > 0. A caller that wants no jitter at
  /// σ <= 0 skips the call rather than passing σ.
  double next(double rel_sigma) {
    if (next_ == size_) next_batch();
    return jitter_at(batch_[next_++], rel_sigma);
  }

 private:
  friend class JitterFiller;

  /// Who holds the spare batch, and with it the engine. The filler moves a
  /// stream kQueued → kFilling → kReady; next() moves it on from kReady,
  /// from kEmpty (an OwnFills kept it from queueing) or, withdrawing the
  /// request, from kQueued.
  enum class Spare : std::uint8_t { kEmpty, kQueued, kFilling, kReady };

  /// Make the next batch current, at the end of this one.
  void next_batch();
  /// Fill `out` with the next `n` σ-free factors (n a multiple of kBatch).
  void fill(double* out, std::size_t n);
  void fill_spare() { fill(spare_, kFillBatch); }

  // The filler writes the spare batch and the engine while it fills. Both
  // sit on cache lines of their own, so those writes never evict what
  // next() reads, here or in the object that owns the stream. No batch is
  // read before it is filled, so neither is zeroed when a stream is built.
  alignas(64) std::array<double, kFillBatch> batches_[2];
  double* batch_ = batches_[0].data();  ///< the current batch
  std::size_t next_ = 0;                ///< first unused factor
  std::size_t size_ = 0;                ///< factors in this batch
  double* spare_ = batches_[1].data();  ///< the batch after the current one
  alignas(64) Mt19937_64 gen_;
  std::atomic<Spare> spare_state_{Spare::kEmpty};
  std::size_t self_filled_ = 0;           ///< draws filled while young
  std::shared_ptr<JitterFiller> filler_;  ///< null while young
  JitterStream* queued_next_ = nullptr;   ///< the filler's queue link
};

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
