// Compact bit sequence container used for test patterns, captured data, and
// serializer inputs throughout the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace mgt {

class Rng;

/// Dynamically sized bit vector, LSB-first within each stored word.
/// Bit index 0 is the first bit transmitted/stored.
class BitVector {
public:
  BitVector() = default;

  /// n bits, all initialized to `fill`.
  explicit BitVector(std::size_t n, bool fill = false);

  /// Parses a string of '0'/'1' characters; other characters (spaces,
  /// underscores) are ignored as visual separators.
  static BitVector from_string(std::string_view bits);

  /// n uniformly random bits drawn from `rng`.
  static BitVector random(std::size_t n, Rng& rng);

  /// Alternating 0101... clock-like pattern of n bits starting with `first`.
  static BitVector alternating(std::size_t n, bool first = false);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const {
    MGT_CHECK(i < size_, "BitVector index out of range");
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1ULL;
  }
  void set(std::size_t i, bool value) {
    MGT_CHECK(i < size_, "BitVector index out of range");
    const std::uint64_t mask = 1ULL << (i % kBitsPerWord);
    if (value) {
      words_[i / kBitsPerWord] |= mask;
    } else {
      words_[i / kBitsPerWord] &= ~mask;
    }
  }
  [[nodiscard]] bool operator[](std::size_t i) const { return get(i); }

  void push_back(bool bit);
  void append(const BitVector& other);
  void clear();

  /// Number of positions where this and `other` differ; both must be the
  /// same length.
  [[nodiscard]] std::size_t hamming_distance(const BitVector& other) const;

  /// Number of 1 bits.
  [[nodiscard]] std::size_t popcount() const;

  /// Number of bit transitions between adjacent positions (NRZ edges).
  [[nodiscard]] std::size_t transition_count() const;

  /// Longest run of identical consecutive bits.
  [[nodiscard]] std::size_t longest_run() const;

  /// Sub-vector [begin, begin+len).
  [[nodiscard]] BitVector slice(std::size_t begin, std::size_t len) const;

  /// Interleaves k same-length vectors bit by bit: result is
  /// a0 b0 c0 ... a1 b1 c1 ... (the operation an ideal k:1 mux performs).
  static BitVector interleave(const std::vector<BitVector>& lanes);

  /// Inverse of interleave: splits into k lanes. size() must be divisible
  /// by k.
  [[nodiscard]] std::vector<BitVector> deinterleave(std::size_t k) const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const BitVector& a, const BitVector& b) = default;

private:
  static constexpr std::size_t kBitsPerWord = 64;

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace mgt
