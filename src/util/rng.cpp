#include "util/rng.hpp"

#include <array>
#include <cmath>
#include <cstddef>

#include "util/error.hpp"

namespace mgt {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// xoshiro256's state transition, one step.
void advance(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  advance(s_);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  MGT_CHECK(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t x = next();
  while (x >= limit) {
    x = next();
  }
  return x % n;
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, r2;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    r2 = u * u + v * v;
  } while (r2 >= 1.0 || r2 == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(r2) / r2);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::gaussian(double mean, double sigma) {
  return mean + sigma * gaussian();
}

bool Rng::chance(double p) { return uniform() < p; }

Rng Rng::fork() {
  // xoshiro256++ jump polynomial: advances this generator by 2^128 steps and
  // hands the pre-jump state to the child so parent/child never overlap.
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  // The 256 steps run on local state words, not through next()'s members.
  Rng child = *this;
  std::array<std::uint64_t, 4> s = s_;
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t jump_word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (jump_word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) {
          acc[i] ^= s[i];
        }
      }
      advance(s);
    }
  }
  s_ = acc;
  child.has_cached_gaussian_ = false;
  return child;
}

}  // namespace mgt
