// FNV-1a 64-bit hashes.
//
// Fnv64 makes cheap structural fingerprints (replay digests, bench result
// digests); fnv1a() gives names (components, tenants) a stable 64-bit
// identity. Both are deterministic across processes and platforms: a pure
// function of the mixed-in bytes, with doubles folded in by bit pattern so
// two values collide only when they are the same double.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace mgt::util {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Standard FNV-1a 64 of a string's bytes (offset basis
/// 14695981039346656037).
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Incremental FNV-1a-style 64-bit hasher over little-endian words. Its
/// offset basis, 1469598103934665603, is one digit short of FNV-1a's
/// 14695981039346656037, so its digests are not standard FNV-1a. The value
/// is kept because perfbench's reference digests and the service's replay
/// fingerprints are built on it.
class Fnv64 {
public:
  void mix_u64(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (x >> (8 * byte)) & 0xFFu;
      h_ *= kFnvPrime;
    }
  }

  void mix_bool(bool b) { mix_u64(b ? 1 : 0); }

  /// Folds in the exact bit pattern (distinguishes -0.0 from +0.0, so a
  /// digest changes whenever any output byte does).
  void mix_double(double d) { mix_u64(std::bit_cast<std::uint64_t>(d)); }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace mgt::util
