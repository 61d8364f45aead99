// The resilient link layer: CRC-protected framing + sliding-window ARQ +
// sync-loss recovery + degraded-mode rate fallback, end to end over the
// Fig 4 slot format.
//
// A LinkChannel owns both protocol endpoints of one simplex data link (the
// simulation sees both ends, exactly like the controlling PC of the paper's
// test bed does) and a pair of transports that carry encoded slots across
// the physical channel — either the deterministic fault-injection channel
// (make_fault_transport) or the full analog signal path of the optical
// test bed (make_testbed_transport: TX serializers -> E/O -> fiber -> O/E
// -> source-synchronous RX).
//
// Determinism contracts (the same two every layer in this repo obeys):
//  1. With an empty FaultPlan the channel never corrupts, the ARQ never
//     retries, and every output is byte-identical to an unprotected run.
//  2. All protocol time is counted in packet slots; all channel randomness
//     is keyed on (plan seed, component, slot tick), so results are
//     identical at every MGT_THREADS setting.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "link/arq.hpp"
#include "link/frame.hpp"
#include "link/sync.hpp"
#include "testbed/testbed.hpp"

namespace mgt::link {

class LinkChannel {
public:
  /// What one slot transfer did to the encoded packet.
  struct TransferOutcome {
    testbed::TestbedPacket packet;
    bool frame_ok = true;  // frame-bit pattern held at the receiver
    bool captured = true;  // receiver captured the slot at all
  };

  /// Carries one encoded slot across the channel. `tick` is the protocol
  /// slot index (the determinism key); `severity_scale` is the link-rate
  /// margin in (0, 1] — degraded-mode fallback widens the UI, which adds
  /// margin and scales the effective corruption severity down.
  using Transport = std::function<TransferOutcome(
      const testbed::TestbedPacket& packet, std::uint64_t tick,
      double severity_scale)>;  // mgtlint:allow(raw-double-param)

  struct Config {
    testbed::SlotFormat format{};
    ArqConfig arq{};
    SyncMonitor::Config sync{};
    /// Degraded-mode fallback: every `degrade_window` completed payloads
    /// the residual FER of that window is compared against
    /// kDegradeFerThreshold; above it the link steps its rate down (UI
    /// doubles), at most kMaxRateSteps times. 0 disables.
    std::size_t degrade_window = 0;
  };

  static constexpr double kDegradeFerThreshold = 0.25;
  static constexpr std::size_t kMaxRateSteps = 2;

  /// `forward` carries data/guard frames TX -> RX, `reverse` carries
  /// ACK/NAK responses RX -> TX. Both may corrupt.
  LinkChannel(Config config, Transport forward, Transport reverse);

  /// Sends one user payload (codec().user_bits() bits) with full ARQ
  /// protection. Returns whether it was delivered and at what cost.
  SendResult send_payload(const BitVector& payload);

  /// Sends a stream of payloads through the sliding window. Results are
  /// index-aligned with the input.
  [[nodiscard]] std::vector<SendResult> transfer(
      const std::vector<BitVector>& payloads);

  /// Exact accounting so far (offered == delivered + abandoned always).
  [[nodiscard]] LinkStats stats() const;

  /// In-order payloads accepted by the receiver end. Below the abandonment
  /// threshold this is byte-identical to the offered stream.
  [[nodiscard]] const std::vector<BitVector>& delivered_payloads() const {
    return delivered_;
  }

  [[nodiscard]] const FrameCodec& codec() const { return codec_; }
  [[nodiscard]] const SyncMonitor& sync() const { return sync_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Rate after degraded-mode fallback: each step doubles the UI.
  [[nodiscard]] std::size_t rate_steps() const { return rate_steps_; }
  [[nodiscard]] Picoseconds current_ui() const;
  [[nodiscard]] GbitsPerSec current_rate() const;

  /// Health verdict in HealthReport form: "arq" (accounting + abandonment),
  /// "sync" (lock history), "rate" (fallback state). Merges cleanly into
  /// core::TestSystem::self_test() reports under a "link." prefix.
  [[nodiscard]] fault::HealthReport health() const;

private:
  /// One data frame through the forward channel into the RX pipeline.
  void deliver_to_rx(const LinkFrame& frame);
  /// One ACK/NAK/idle response through the reverse channel back to TX.
  /// Returns the cumulative ack when the response was usable.
  [[nodiscard]] std::optional<std::uint64_t> exchange_response();
  /// Guard-slot hunting until the receiver re-engages (bounded).
  void resynchronize();
  /// Degraded-mode bookkeeping at payload completion.
  void note_completion(bool was_abandoned);
  /// Effective severity scale after rate fallback (2^-rate_steps).
  [[nodiscard]] double margin() const;

  Config config_;
  FrameCodec codec_;
  Transport forward_;
  Transport reverse_;
  SyncMonitor sync_;
  ArqReceiver rx_;
  LinkStats stats_{};
  std::vector<BitVector> delivered_;
  std::uint64_t tick_ = 0;      // protocol slot clock
  std::uint64_t tx_acked_ = 0;  // cumulative ack == seq of the base payload
  std::size_t rate_steps_ = 0;
  bool rx_saw_gap_ = false;     // within the current round
  std::size_t window_completed_ = 0;  // degraded-mode window counters
  std::size_t window_abandoned_ = 0;
};

/// Deterministic corruption channel driven by `plan`'s slice for
/// `component`. Consumed fault kinds (tick = protocol slot):
///   kFrameCorruption  severity = per-bit flip probability (payload+header)
///   kSyncLoss         frame-bit violation for the window's duration
///   kLossOfSignal     slot not captured at all (link dark)
/// An empty slice transfers every packet untouched and draws no RNG.
[[nodiscard]] LinkChannel::Transport make_fault_transport(
    const fault::FaultPlan& plan, const std::string& component);

/// Full signal-path transport over an OpticalTestbed (no fabric: the pure
/// point-to-point optical link). Ignores severity_scale — the analog chain
/// is its own severity.
[[nodiscard]] LinkChannel::Transport make_testbed_transport(
    testbed::OpticalTestbed& bed);

/// Signal-path transport that additionally deflection-routes every slot
/// through the Data Vortex fabric from `input_port` to `destination`
/// before the analog check (transmitter -> vortex fabric -> receiver).
/// A packet the fabric drops (failed nodes) arrives uncaptured.
[[nodiscard]] LinkChannel::Transport make_routed_transport(
    testbed::OpticalTestbed& bed, std::size_t input_port,
    std::uint32_t destination);

}  // namespace mgt::link
