// Optical Test Bed receiver (Fig 5, right half).
//
// Source-synchronous capture: the recovered clock channel's transitions
// mark the bit boundaries; each payload bit is sampled half a unit
// interval after its boundary. The receiver needs pre-clocks to start up
// and post-clocks to flush its pipeline, which is exactly why the Fig 4
// window brackets the payload with them.
#pragma once

#include <cstddef>
#include <optional>

#include "testbed/framing.hpp"
#include "testbed/transmitter.hpp"

namespace mgt::testbed {

class Receiver {
public:
  struct Config {
    SlotFormat format{};
  };

  /// Clock transitions needed before capture engages (start-up).
  static constexpr std::size_t kStartupEdges = 2;

  explicit Receiver(Config config);

  /// Result of receiving one slot.
  struct Result {
    TestbedPacket packet;
    bool frame_ok = false;
    std::size_t clock_edges_seen = 0;
    /// True when enough clock edges arrived to capture all payload bits.
    bool captured = false;
    /// Payload bits that arrived before the receiver pipeline finished
    /// start-up (lost when the format's pre-clocks are fewer than the
    /// receiver's kStartupEdges — the trade Fig 4's pre-clocks exist for).
    std::size_t bits_lost_to_startup = 0;
  };

  /// Recovers the packet from the transmitted (possibly degraded) signals.
  /// `slot_start` is the nominal start time of the slot at the receiver.
  Result receive(const OpticalTransmitter::Output& signals,
                 Picoseconds slot_start) const;

  [[nodiscard]] const Config& config() const { return config_; }

private:
  Config config_;
};

}  // namespace mgt::testbed
