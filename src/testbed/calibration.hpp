// Transmitter channel deskew calibration.
//
// Section 3: "The relative timing for leading and trailing edges for both
// data and Framing/Header signals must be controlled with 10 ps resolution
// ... a 10 ns range for the placement of these edges is also required."
// The per-channel programmable delay lines provide the actuator; this
// module provides the measurement-and-correct procedure a test engineer
// runs at bring-up: measure each channel's skew against the clock channel,
// program the delay codes that align them, verify the residual.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "testbed/transmitter.hpp"

namespace mgt::testbed {

/// Result of calibrating one transmitter.
struct CalibrationReport {
  /// Skew of each high-speed channel relative to the clock channel before
  /// calibration (positive = later than clock).
  std::array<Picoseconds, kHighSpeedChannels> initial_skew{};
  /// Delay codes programmed by the calibration.
  std::array<std::size_t, kHighSpeedChannels> programmed_codes{};
  /// Residual skew after calibration.
  std::array<Picoseconds, kHighSpeedChannels> residual_skew{};

  /// Worst |residual| across channels.
  [[nodiscard]] Picoseconds worst_residual() const;
  /// True when every residual is within the bound (paper: ~+-25 ps).
  [[nodiscard]] bool within(Picoseconds bound) const;
};

/// Packet slots averaged per skew measurement on a first attempt; doubled
/// on every retry (bounded backoff: more averaging beats down the random
/// jitter that made the previous attempt miss the bound).
inline constexpr std::size_t kAveragingSlots = 8;
/// Attempts calibrate_with_recovery makes before it reports failure.
inline constexpr std::size_t kMaxAttempts = 3;

/// Measures each channel's mean edge time relative to the clock channel
/// using a repeated alignment pattern (kAveragingSlots packet slots), then
/// programs the delay lines so all channels land on the latest one (delays
/// can only add). Returns the report; the transmitter is left calibrated.
///
/// This is the calibrate_with_recovery procedure with a single attempt,
/// except that a dead channel throws mgt::RecoverableError instead of
/// being masked.
CalibrationReport calibrate_transmitter(OpticalTransmitter& tx);

/// Measures the current per-channel skew (relative to the clock channel),
/// averaged over kAveragingSlots packet slots, without changing any
/// programming. Element kClockChannel is 0 by construction. Throws
/// mgt::RecoverableError when a channel produces no edges (dead channel);
/// use calibrate_with_recovery to mask dead channels and keep going
/// instead.
std::array<Picoseconds, kHighSpeedChannels> measure_channel_skew(
    OpticalTransmitter& tx);

/// What calibrate_with_recovery did and how it ended.
struct CalibrationOutcome {
  CalibrationReport report;
  /// True when the worst alive-channel residual met the 25 ps bound.
  bool converged = false;
  std::size_t attempts = 0;
  /// Averaging depth of the final (reported) attempt.
  std::size_t averaging_slots_used = 0;
  /// Channels that produced no edges and were excluded from alignment.
  std::vector<std::size_t> dead_channels;

  [[nodiscard]] bool healthy() const {
    return converged && dead_channels.empty();
  }
};

/// Bring-up calibration that degrades gracefully instead of asserting:
/// dead channels (no edges — all-lane stuck-at faults, unplugged parts)
/// are detected, excluded from the alignment, and reported; when the
/// residual misses the 25 ps bound the procedure retries with doubled
/// averaging, up to kMaxAttempts attempts. The transmitter is left with the
/// programming of the final attempt. A dead clock channel aborts early (no
/// timing reference to calibrate against) with converged = false.
CalibrationOutcome calibrate_with_recovery(OpticalTransmitter& tx);

}  // namespace mgt::testbed
