// Deterministic, splittable pseudo-random number generation.
//
// All randomized components of the library take an explicit 64-bit seed so
// that every experiment is reproducible. `SplitMix64` is used to derive
// independent streams (e.g. one per worker thread) from a master seed;
// `Xoshiro256pp` is the workhorse generator (fast, 2^256 period).
#pragma once

#include <cmath>
#include <cstdint>

namespace uic {

/// Number of logical RNG streams every randomized component partitions
/// its work onto (RR sampling's stream grid in rrset/rr_collection.h and
/// the Monte-Carlo estimators' ParallelForStreams in common/parallel.h).
/// FIXED — never derived from the worker count — so results are
/// deterministic in the seed alone; chosen to match the default
/// thread-pool ceiling (DefaultWorkers() caps at 16, thread_pool.h) so
/// full hardware parallelism stays reachable. One constant on purpose:
/// the two consumers must agree with each other and with that ceiling.
inline constexpr unsigned kRngStreams = 16;

/// \brief SplitMix64: used for seeding and stream splitting.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// \brief xoshiro256++ generator with convenience distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.Next();
    have_gauss_ = false;
  }

  /// Derive an independent stream for worker `index`.
  static Rng Split(uint64_t master_seed, uint64_t index) {
    SplitMix64 sm(master_seed ^ (0xa0761d6478bd642fULL * (index + 1)));
    return Rng(sm.Next());
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) (Lemire's method).
  uint64_t NextBounded(uint64_t bound) {
    if (bound == 0) return 0;
    __uint128_t m = static_cast<__uint128_t>(NextU64()) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        m = static_cast<__uint128_t>(NextU64()) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability `p`.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Number of consecutive failures before the next success of a
  /// Bernoulli(p) trial sequence — the geometric gap the sampling plan's
  /// skip path jumps by (graph/sampling_plan.h). Takes the precomputed
  /// `log1p(-p)` (must be < 0, i.e. p > 0) and consumes exactly one
  /// uniform draw:
  ///   gap = floor(log1p(-U) / log1p(-p)),  U = NextDouble().
  /// Identity: gap == 0 ⟺ U < p, so one geometric draw makes the same
  /// accept decision from the same draw as one NextBernoulli(p) trial.
  /// p >= 1 (log1p_neg_p == -inf) yields gap 0 every time.
  uint64_t NextGeometric(double log1p_neg_p) {
    const double g = std::log1p(-NextDouble()) / log1p_neg_p;
    // Clamp before the cast (double → uint64 is UB at >= 2^64); any value
    // past 2^62 means "no success within any real adjacency" anyway. The
    // negated comparison also routes NaN (contract violation: p <= 0)
    // into the clamp instead of UB.
    if (!(g < 0x1p62)) return uint64_t{1} << 62;
    return static_cast<uint64_t>(g);
  }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal via Marsaglia polar method (cached pair).
  double NextGaussian() {
    if (have_gauss_) {
      have_gauss_ = false;
      return cached_gauss_;
    }
    double u, v, s;
    do {
      u = 2.0 * NextDouble() - 1.0;
      v = 2.0 * NextDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    cached_gauss_ = v * mul;
    have_gauss_ = true;
    return u * mul;
  }

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool have_gauss_ = false;
  double cached_gauss_ = 0.0;
};

}  // namespace uic
