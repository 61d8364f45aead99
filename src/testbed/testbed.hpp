// End-to-end Optical Test Bed (Section 3, Fig 3).
//
// Ties every piece together: the DLC-driven transmitter serializes packet
// slots onto five wavelengths, lasers and fiber carry them into the Data
// Vortex, the fabric deflection-routes them to their destination port,
// photodetectors recover the electrical signals, and the source-
// synchronous receiver rebuilds the packets. Packet-level routing runs
// slot-synchronously; every 8th delivered packet also takes the full
// signal-level path so payload integrity is checked against the analog
// chain.
#pragma once

#include <cstdint>

#include "core/presets.hpp"
#include "fault/fault.hpp"
#include "testbed/receiver.hpp"
#include "testbed/transmitter.hpp"
#include "vortex/fabric.hpp"
#include "vortex/optics.hpp"

namespace mgt::testbed {

class OpticalTestbed {
public:
  struct Config {
    SlotFormat format{};
    core::ChannelConfig channel = core::presets::optical_testbed();
    /// Scheduled faults. Slices wired at construction: "fabric"
    /// (kNodeFailure; index = flat node, tick = slot) and "optics"
    /// (kLossOfSignal; index = high-speed channel, tick = send count).
    /// The transmitter additionally consumes `channel.faults`.
    fault::FaultPlan faults{};
  };

  OpticalTestbed(Config config, std::uint64_t seed);

  /// Result of one end-to-end single-packet transfer.
  struct SingleResult {
    TestbedPacket sent;
    TestbedPacket received;
    bool frame_ok = false;
    bool captured = false;
    std::size_t payload_bit_errors = 0;
    bool header_ok = false;
    /// High-speed channels that were dark for this transfer (scheduled
    /// loss-of-signal). The receiver sees a flatlined channel instead of
    /// the test aborting.
    std::size_t los_channels = 0;
  };

  /// Sends one packet through TX -> E/O -> fiber -> O/E -> RX (no fabric
  /// contention; the pure signal path).
  SingleResult send_one(const TestbedPacket& packet);

  /// Result of one transfer routed through the Data Vortex fabric before
  /// taking the analog signal path (transmitter -> fabric -> receiver).
  struct RoutedResult {
    /// Signal-path outcome at the output port. Only meaningful if routed.
    SingleResult signal;
    /// Slots spent inside the fabric (deflections included).
    std::uint64_t latency_slots = 0;
    /// False when the fabric never delivered the packet: the entry node
    /// stayed blocked/failed, or a failed node dropped it in flight.
    bool routed = false;
  };

  /// Deflection-routes one packet from `input_port` to `destination`
  /// through the fabric, then runs the delivered payload down the full
  /// signal path. Bounded: a packet the fabric cannot place or deliver
  /// comes back with routed == false instead of hanging.
  RoutedResult send_routed(const TestbedPacket& packet,
                           std::size_t input_port, std::uint32_t destination);

  /// Full run statistics.
  struct RunStats {
    vortex::FabricStats fabric;
    double mean_latency_slots = 0.0;
    double mean_deflections = 0.0;
    std::uint64_t min_latency_slots = 0;
    std::uint64_t max_latency_slots = 0;
    std::size_t signal_checks = 0;
    std::size_t payload_bit_errors = 0;
    std::size_t header_errors = 0;
    std::size_t frame_failures = 0;
    /// Channel-transfers lost to loss-of-signal across all signal checks.
    std::uint64_t los_events = 0;
    vortex::LinkBudget budget;

    [[nodiscard]] double payload_ber() const {
      const double bits = static_cast<double>(signal_checks) *
                          static_cast<double>(kDataChannels) * 32.0;
      return bits == 0.0 ? 0.0
                         : static_cast<double>(payload_bit_errors) / bits;
    }
  };

  /// Runs `n_slots` of random traffic at `offered_load` (injection
  /// probability per port per slot), then drains the fabric.
  // mgtlint:allow(raw-double-param): offered_load is a probability.
  RunStats run(double offered_load, std::size_t n_slots);

  [[nodiscard]] const Config& config() const { return config_; }
  /// Power budget of one WDM channel: laser -> fiber -> detector.
  [[nodiscard]] vortex::LinkBudget link_budget() const {
    return vortex::compute_link_budget();
  }
  [[nodiscard]] OpticalTransmitter& transmitter() { return tx_; }
  [[nodiscard]] vortex::DataVortex& fabric() { return fabric_; }

private:
  /// Runs the signal path for a delivered packet; updates error counters.
  void signal_check(const vortex::Packet& packet, RunStats& stats);

  Config config_;
  Rng rng_;
  OpticalTransmitter tx_;
  Receiver rx_;
  vortex::DataVortex fabric_;
  std::vector<vortex::LaserDriver> lasers_;      // one per high-speed channel
  std::vector<vortex::Photodetector> detectors_;
  vortex::OpticalPath path_;
  fault::ComponentFaults optics_faults_;
  std::uint64_t sends_ = 0;  // fault tick for "optics" LOS windows
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace mgt::testbed
