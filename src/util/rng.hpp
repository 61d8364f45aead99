// Deterministic random number generation.
//
// All stochastic behavior in the library (jitter, pattern noise, traffic)
// draws from explicitly seeded xoshiro256++ streams so that every test and
// bench result is exactly reproducible. Never seed from wall clock.
#pragma once

#include <array>
#include <cstdint>

namespace mgt {

/// One splitmix64 step (Vigna): advances `x` by the golden-ratio increment
/// and returns the mix of the new value. Seeds Rng's state words and the
/// per-task seeds of util::mix_seed.
constexpr std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ PRNG (Blackman & Vigna). Fast, high quality, 2^256-1 period.
class Rng {
public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from a single seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next();

  // UniformRandomBitGenerator interface so <random> distributions also work.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Standard normal deviate (Marsaglia polar method, cached pair).
  double gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double sigma);

  /// Bernoulli draw with probability p of true.
  bool chance(double p);

  /// Creates an independent stream by jumping this generator's sequence;
  /// used to give each component its own decorrelated noise source.
  Rng fork();

private:
  std::array<std::uint64_t, 4> s_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace mgt
