#include "util/bitvec.hpp"

#include <bit>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mgt {

BitVector::BitVector(std::size_t n, bool fill)
    : words_((n + kBitsPerWord - 1) / kBitsPerWord, fill ? ~0ULL : 0ULL),
      size_(n) {
  if (fill && n % kBitsPerWord != 0) {
    // Keep unused high bits of the last word zero so popcount stays honest.
    words_.back() &= (1ULL << (n % kBitsPerWord)) - 1;
  }
}

BitVector BitVector::from_string(std::string_view bits) {
  BitVector out;
  for (char c : bits) {
    if (c == '0' || c == '1') {
      out.push_back(c == '1');
    }
  }
  return out;
}

BitVector BitVector::random(std::size_t n, Rng& rng) {
  BitVector out(n);
  for (std::size_t w = 0; w < out.words_.size(); ++w) {
    out.words_[w] = rng.next();
  }
  if (n % kBitsPerWord != 0 && !out.words_.empty()) {
    out.words_.back() &= (1ULL << (n % kBitsPerWord)) - 1;
  }
  return out;
}

BitVector BitVector::alternating(std::size_t n, bool first) {
  BitVector out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.set(i, (i % 2 == 0) == first);
  }
  return out;
}

void BitVector::push_back(bool bit) {
  if (size_ % kBitsPerWord == 0) {
    words_.push_back(0);
  }
  ++size_;
  set(size_ - 1, bit);
}

void BitVector::append(const BitVector& other) {
  for (std::size_t i = 0; i < other.size(); ++i) {
    push_back(other.get(i));
  }
}

void BitVector::clear() {
  words_.clear();
  size_ = 0;
}

std::size_t BitVector::hamming_distance(const BitVector& other) const {
  MGT_CHECK(size_ == other.size_, "hamming_distance requires equal lengths");
  std::size_t distance = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    distance += static_cast<std::size_t>(
        std::popcount(words_[w] ^ other.words_[w]));
  }
  return distance;
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

std::size_t BitVector::transition_count() const {
  std::size_t n = 0;
  for (std::size_t i = 1; i < size_; ++i) {
    if (get(i) != get(i - 1)) {
      ++n;
    }
  }
  return n;
}

std::size_t BitVector::longest_run() const {
  if (size_ == 0) {
    return 0;
  }
  std::size_t best = 1;
  std::size_t run = 1;
  for (std::size_t i = 1; i < size_; ++i) {
    if (get(i) == get(i - 1)) {
      ++run;
      best = std::max(best, run);
    } else {
      run = 1;
    }
  }
  return best;
}

BitVector BitVector::slice(std::size_t begin, std::size_t len) const {
  MGT_CHECK(begin + len <= size_, "slice out of range");
  BitVector out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.set(i, get(begin + i));
  }
  return out;
}

BitVector BitVector::interleave(const std::vector<BitVector>& lanes) {
  MGT_CHECK(!lanes.empty(), "interleave of zero lanes");
  const std::size_t lane_len = lanes.front().size();
  for (const auto& lane : lanes) {
    MGT_CHECK(lane.size() == lane_len, "interleave requires equal lanes");
  }
  BitVector out(lane_len * lanes.size());
  std::size_t pos = 0;
  for (std::size_t i = 0; i < lane_len; ++i) {
    for (const auto& lane : lanes) {
      out.set(pos++, lane.get(i));
    }
  }
  return out;
}

std::vector<BitVector> BitVector::deinterleave(std::size_t k) const {
  MGT_CHECK(k > 0);
  MGT_CHECK(size_ % k == 0, "deinterleave requires size divisible by k");
  std::vector<BitVector> lanes(k, BitVector(size_ / k));
  for (std::size_t i = 0; i < size_; ++i) {
    lanes[i % k].set(i / k, get(i));
  }
  return lanes;
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    s.push_back(get(i) ? '1' : '0');
  }
  return s;
}

}  // namespace mgt
