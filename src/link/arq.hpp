// Sliding-window ARQ: configuration, accounting, and the receiver side.
//
// The protocol is go-back-N with cumulative ACK/NAK responses, bounded
// retransmission, a deterministic timeout measured in packet slots (never
// wall time), and exponential backoff between retries. Accounting follows
// the DataVortex backpressure invariant style: every offered payload ends
// up exactly one of delivered or abandoned —
//
//   offered == delivered + abandoned
//
// with retransmissions counted separately (they are extra work, not extra
// payloads). Sequence numbers advance only on delivery. When the retry
// budget runs out the transmitter cannot distinguish "payload lost" from
// "payload delivered, every ack lost" (the two-generals ambiguity), so the
// LinkChannel — which owns both endpoints, like the controlling PC of the
// paper's test bed — reconciles against the receiver's expectation before
// deciding: a payload the receiver already accepted is counted delivered
// (an ack loss, `LinkStats::reconciled`), and only a payload the receiver
// still expects is abandoned, its sequence slot reused by the next payload.
// Either way the two ends can never drift apart structurally.
#pragma once

#include <cstdint>
#include <optional>

#include "link/frame.hpp"
#include "util/error.hpp"

namespace mgt::link {

/// ARQ protocol parameters: the retry budget, and the fixed protocol
/// constants. All times are in packet slots.
struct ArqConfig {
  /// Frames in flight per round (go-back-N window). 2*window must fit the
  /// 8-bit wire sequence space so duplicates are never ambiguous.
  static constexpr std::size_t kWindow = 8;
  /// Initial reverse-channel timeout, in slots.
  static constexpr std::uint64_t kTimeoutSlots = 4;
  /// Timeout multiplier per consecutive timeout (exponential backoff).
  static constexpr std::uint64_t kBackoffBase = 2;
  /// Backoff ceiling, in slots.
  static constexpr std::uint64_t kBackoffCapSlots = 64;
  /// Guard slots spent per resynchronization attempt before giving up and
  /// letting the retry budget handle the outage.
  static constexpr std::uint64_t kMaxResyncSlots = 64;

  /// Rounds without progress before the base payload is abandoned.
  std::size_t max_retries = 8;

  void validate() const { MGT_CHECK(max_retries >= 1); }
};

/// Outcome of sending one payload. [[nodiscard]]: ignoring whether the
/// link actually delivered defeats the whole layer (see the mgtlint rule
/// no-unchecked-status).
struct [[nodiscard]] SendResult {
  bool delivered = false;
  /// Full sequence number the payload travelled under.
  std::uint64_t seq = 0;
  /// Rounds in which this payload's frame was transmitted.
  std::size_t attempts = 0;
};

/// Exact link accounting. TX-side counters follow the invariant above;
/// RX-side counters describe what the corruption looked like on the wire.
struct LinkStats {
  // TX side.
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t retransmissions = 0;      // data frames sent beyond the first
  std::uint64_t data_frames_sent = 0;     // every data-frame transmission
  std::uint64_t control_frames_sent = 0;  // ACK/NAK exchanges
  std::uint64_t timeouts = 0;             // unusable reverse-channel rounds
  std::uint64_t naks = 0;                 // decodable NAK responses
  std::uint64_t reconciled = 0;           // delivered despite every ack lost
  std::uint64_t rejected_acks = 0;        // decodable but implausible acks
  // RX side.
  std::uint64_t integrity_failures = 0;   // CRC / frame-bit / capture failures
  std::uint64_t frames_lost_hunting = 0;  // arrived while the RX hunted
  std::uint64_t duplicates = 0;           // re-received, re-acked, not re-delivered
  // Synchronization.
  std::uint64_t sync_losses = 0;
  std::uint64_t resync_slots = 0;
  std::uint64_t relocks = 0;
  // Time and fallback.
  std::uint64_t slots = 0;                // deterministic protocol time
  std::size_t rate_steps = 0;             // degraded-mode fallbacks taken

  /// The ARQ accounting invariant (offered == delivered + abandoned).
  [[nodiscard]] bool accounting_closed() const {
    return offered == delivered + abandoned;
  }
  /// Raw injected frame error rate: the fraction of data-frame
  /// transmissions the channel ruined (before any retransmission).
  [[nodiscard]] double raw_fer() const {
    return data_frames_sent == 0
               ? 0.0
               : static_cast<double>(integrity_failures +
                                     frames_lost_hunting) /
                     static_cast<double>(data_frames_sent);
  }
  /// Residual (post-ARQ) frame error rate: payloads lost for good.
  [[nodiscard]] double residual_fer() const {
    return offered == 0
               ? 0.0
               : static_cast<double>(abandoned) / static_cast<double>(offered);
  }
};

/// Receiver-side ARQ state: in-order delivery, duplicate suppression, and
/// the cumulative acknowledgment (the count of in-order payloads accepted,
/// which is also the next expected full sequence number).
class ArqReceiver {
public:
  /// Next expected full sequence number == cumulative ack.
  [[nodiscard]] std::uint64_t expected() const { return expected_; }

  /// Rebuilds the full sequence number from its 8 wire bits, assuming the
  /// sender is within +/- ArqConfig::kWindow of this receiver's expectation
  /// (the window bound guarantees it). Returns nullopt for a sequence that
  /// decodes to before the start of the stream — such a frame can only be
  /// a corrupted header that slipped past CRC-8, and the caller must treat
  /// it as a duplicate, never deliver it.
  [[nodiscard]] std::optional<std::uint64_t> reconstruct(
      std::uint8_t wire_seq) const;

  /// Verdict on an integrity-checked data frame.
  struct Verdict {
    bool deliver = false;    // accepted in order: payload is new
    bool duplicate = false;  // already delivered: re-ack only
    bool gap = false;        // ahead of expectation: NAK territory
  };
  Verdict on_data(std::uint64_t full_seq);

private:
  std::uint64_t expected_ = 0;
};

}  // namespace mgt::link
