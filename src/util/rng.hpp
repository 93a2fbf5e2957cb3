// Deterministic pseudo-random number generation for simulations and tests.
//
// All stochastic behaviour in the library flows through SplitMix64 (seeding)
// and Xoshiro256pp (bulk generation) so that every experiment is exactly
// reproducible from a single 64-bit seed. <random> engines are deliberately
// avoided: their streams are not guaranteed stable across standard library
// implementations, which would make the recorded experiment outputs
// machine-dependent.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>
#include <limits>

namespace nocw {

/// SplitMix64: tiny generator used to expand a user seed into state for
/// larger generators. Passes BigCrush when used directly; here it only seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 (Blackman & Vigna). Fast, high-quality 64-bit generator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0x9eb1c5a5ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // 128-bit multiply keeps the distribution exactly uniform after the
    // rejection step below.
    __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal deviate (Box-Muller, cached second value).
  double normal() noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) noexcept { return uniform() < p; }

  /// A precomputed advance by a fixed number of draws: apply() leaves the
  /// generator where `draws` calls of operator() would. The xoshiro256 state
  /// update (xor, shift, rotate) is linear over GF(2), so n draws are one
  /// fixed 256x256 bit matrix: building it costs O(log n) matrix squarings,
  /// applying it about 128 row xors. Only the draw state moves; the cached
  /// normal deviate is kept.
  class Jump {
   public:
    explicit Jump(std::uint64_t draws);
    void apply(Xoshiro256pp& rng) const noexcept;

   private:
    using State = std::array<std::uint64_t, 4>;
    /// images[b]: the state a linear map sends state bit b (word b/64) to.
    using Images = std::array<State, 256>;

    static State map(const Images& images, const State& v) noexcept;

    Images image_{};
  };

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace nocw
