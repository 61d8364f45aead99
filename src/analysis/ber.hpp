// Bit-error-rate measurement and bathtub scans.
//
// The mini-tester's capture path slices the returned waveform with a
// programmable strobe; comparing the slice against the expected pattern at
// the best alignment yields BER, and sweeping the strobe across the unit
// interval yields the bathtub curve (the BER-vs-strobe-offset profile whose
// flat floor is the usable eye).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "util/bitvec.hpp"
#include "util/units.hpp"

namespace mgt::ana {

/// Result of comparing a captured bit sequence to an expected one.
struct BerResult {
  std::size_t bits_compared = 0;
  std::size_t errors = 0;
  /// Alignment (captured index minus expected index) that minimized errors.
  std::size_t alignment = 0;

  [[nodiscard]] double ber() const {
    return bits_compared == 0
               ? 1.0
               : static_cast<double>(errors) / static_cast<double>(bits_compared);
  }
};

/// Compares `captured` to `expected` at alignment 0.
BerResult compare_bits(const BitVector& captured, const BitVector& expected);

/// Searches alignments 0..max_shift of captured-vs-expected and returns the
/// best (fewest errors). Models the pattern-sync step a BERT performs.
BerResult compare_bits_aligned(const BitVector& captured,
                               const BitVector& expected,
                               std::size_t max_shift);

/// One point of a bathtub scan.
struct BathtubPoint {
  Picoseconds strobe_offset{0.0};  // within the UI
  double ber = 1.0;
  std::size_t errors = 0;
  std::size_t bits = 0;
};

/// Width of the strobe range whose BER is at or below `threshold`
/// (longest contiguous run of passing points times the step), i.e. the
/// timing margin a production test would report.
Picoseconds bathtub_opening(const std::vector<BathtubPoint>& scan,
                            // mgtlint:allow(raw-double-param): a BER.
                            double threshold);

}  // namespace mgt::ana
