#include "link/link.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace mgt::link {

LinkChannel::LinkChannel(Config config, Transport forward, Transport reverse)
    : config_(config),
      codec_(config.format),
      forward_(std::move(forward)),
      reverse_(std::move(reverse)),
      sync_(config.sync) {
  config_.format.validate();
  config_.arq.validate();
  MGT_CHECK(static_cast<bool>(forward_), "LinkChannel needs a forward transport");
  MGT_CHECK(static_cast<bool>(reverse_), "LinkChannel needs a reverse transport");
  // Control frames carry the 64-bit cumulative ack in the user payload, so
  // a format the codec accepts can still be too narrow for the protocol.
  // Fail at construction, not at the first ACK exchange mid-transfer.
  MGT_CHECK(codec_.user_bits() >= 64,
            "LinkChannel needs user_bits() >= 64 to carry the cumulative "
            "ack; SlotFormat.data_bits = " +
                std::to_string(config_.format.data_bits) + " leaves only " +
                std::to_string(codec_.user_bits()) + " bits");
}

double LinkChannel::margin() const {
  return std::ldexp(1.0, -static_cast<int>(rate_steps_));
}

Picoseconds LinkChannel::current_ui() const {
  return Picoseconds{config_.format.ui.ps() *
                     std::ldexp(1.0, static_cast<int>(rate_steps_))};
}

GbitsPerSec LinkChannel::current_rate() const {
  return GbitsPerSec::from_ui(current_ui());
}

void LinkChannel::deliver_to_rx(const LinkFrame& frame) {
  const TransferOutcome out =
      forward_(codec_.encode(frame), tick_++, margin());
  if (!sync_.engaged()) {
    // A hunting receiver sees only energy where the guard pattern should
    // be dark — the frame is lost and the hunt resets.
    ++stats_.frames_lost_hunting;
    sync_.observe_guard(false);
    return;
  }
  if (!out.captured || !out.frame_ok) {
    ++stats_.integrity_failures;
    sync_.observe_bad_frame();
    return;
  }
  const FrameCodec::Decoded dec = codec_.decode(out.packet);
  if (!dec.ok() || dec.frame.kind != FrameKind::kData) {
    ++stats_.integrity_failures;
    sync_.observe_bad_frame();
    return;
  }
  sync_.observe_good_frame();
  const std::optional<std::uint64_t> full = rx_.reconstruct(
      static_cast<std::uint8_t>(dec.frame.seq & 0xFFu));
  if (!full.has_value()) {
    // A sequence from before the stream began: a corrupted header that
    // slipped past CRC-8. Re-ack territory, never delivery.
    ++stats_.duplicates;
    return;
  }
  const ArqReceiver::Verdict v = rx_.on_data(*full);
  if (v.deliver) {
    delivered_.push_back(dec.frame.payload);
  }
  if (v.duplicate) {
    ++stats_.duplicates;
  }
  if (v.gap) {
    rx_saw_gap_ = true;
  }
}

std::optional<std::uint64_t> LinkChannel::exchange_response() {
  LinkFrame response;
  if (sync_.engaged()) {
    response.kind = rx_saw_gap_ ? FrameKind::kNak : FrameKind::kAck;
    response.seq = rx_.expected();
    response.payload = pack_bits(rx_.expected(), 64);
  } else {
    response.kind = FrameKind::kIdle;  // a hunting RX has nothing to say
  }
  rx_saw_gap_ = false;
  ++stats_.control_frames_sent;

  const TransferOutcome out =
      reverse_(codec_.encode(response), tick_++, margin());
  if (!out.captured || !out.frame_ok) {
    return std::nullopt;
  }
  const FrameCodec::Decoded dec = codec_.decode(out.packet);
  if (!dec.ok() || (dec.frame.kind != FrameKind::kAck &&
                    dec.frame.kind != FrameKind::kNak)) {
    return std::nullopt;
  }
  if (dec.frame.kind == FrameKind::kNak) {
    ++stats_.naks;
  }
  return unpack_bits(dec.frame.payload, 0, 64);
}

void LinkChannel::resynchronize() {
  std::uint64_t spent = 0;
  while (!sync_.engaged() && spent < ArqConfig::kMaxResyncSlots) {
    // A guard/training slot: the idle frame carries no payload energy, so
    // the receiver can check the guard/dead-time pattern against it. The
    // channel's integrity at this tick decides whether it looks clean.
    const TransferOutcome out =
        forward_(codec_.encode(LinkFrame{FrameKind::kIdle, 0, {}}), tick_++,
                 margin());
    ++stats_.resync_slots;
    ++spent;
    sync_.observe_guard(out.captured && out.frame_ok);
  }
}

void LinkChannel::note_completion(bool was_abandoned) {
  if (config_.degrade_window == 0) {
    return;
  }
  ++window_completed_;
  if (was_abandoned) {
    ++window_abandoned_;
  }
  if (window_completed_ < config_.degrade_window) {
    return;
  }
  const double fer = static_cast<double>(window_abandoned_) /
                     static_cast<double>(window_completed_);
  if (fer > kDegradeFerThreshold && rate_steps_ < kMaxRateSteps) {
    ++rate_steps_;  // UI doubles: more margin, half the effective severity
  }
  window_completed_ = 0;
  window_abandoned_ = 0;
}

SendResult LinkChannel::send_payload(const BitVector& payload) {
  return transfer({payload}).front();
}

std::vector<SendResult> LinkChannel::transfer(
    const std::vector<BitVector>& payloads) {
  for (const BitVector& p : payloads) {
    MGT_CHECK(p.size() == codec_.user_bits(),
              "link payload must be exactly codec().user_bits() = " +
                  std::to_string(codec_.user_bits()) + " bits, got " +
                  std::to_string(p.size()));
  }
  const std::size_t n = payloads.size();
  std::vector<SendResult> results(n);
  std::vector<std::size_t> attempts(n, 0);
  stats_.offered += n;
  // The transfer loop is strictly serial (one channel, one tick domain),
  // so a span over the protocol-tick range and delta counters recorded at
  // the end are as deterministic as stats_ itself.
  const obs::TickSpan span("link.transfer", tick_);
  const obs::ProfileScope profile("link.transfer", &tick_);
  const LinkStats before = stats_;

  std::size_t base = 0;
  std::size_t retries = 0;  // rounds without progress for the current base
  std::uint64_t backoff = ArqConfig::kTimeoutSlots;

  while (base < n) {
    if (!sync_.engaged()) {
      resynchronize();
    }

    // Send the window [base, end). The base payload always travels as
    // sequence tx_acked_: sequence numbers advance only on delivery.
    const std::size_t end = std::min(base + ArqConfig::kWindow, n);
    for (std::size_t s = base; s < end; ++s) {
      ++attempts[s];
      if (attempts[s] > 1) {
        ++stats_.retransmissions;
      }
      ++stats_.data_frames_sent;
      LinkFrame frame;
      frame.kind = FrameKind::kData;
      frame.seq = tx_acked_ + (s - base);
      frame.payload = payloads[s];
      deliver_to_rx(frame);
    }

    std::optional<std::uint64_t> ack = exchange_response();
    // Plausibility gate: a genuine cumulative ack lies in
    // [tx_acked_, tx_acked_ + (end - base)] — the receiver's expectation
    // is monotonic and it cannot have accepted beyond what this window
    // sent. Anything else is a corrupted control frame that slipped past
    // CRC-16; discard it like an undecodable response instead of letting
    // a garbage count drive the window (or abort the transfer).
    if (ack.has_value() &&
        (*ack < tx_acked_ || *ack > tx_acked_ + (end - base))) {
      ++stats_.rejected_acks;
      ack.reset();
    }
    bool progress = false;
    if (ack.has_value()) {
      const std::uint64_t c = *ack;
      if (c > tx_acked_) {
        const std::uint64_t delta = c - tx_acked_;
        for (std::uint64_t d = 0; d < delta; ++d) {
          results[base + d] = SendResult{true, tx_acked_ + d,
                                         attempts[base + d]};
          ++stats_.delivered;
          note_completion(false);
        }
        base += delta;
        tx_acked_ = c;
        retries = 0;
        backoff = ArqConfig::kTimeoutSlots;
        progress = true;
      }
    } else {
      // Undecodable response: wait out the (exponentially backed off)
      // timeout before going back.
      ++stats_.timeouts;
      tick_ += backoff;
      backoff = std::min(backoff * ArqConfig::kBackoffBase,
                         ArqConfig::kBackoffCapSlots);
    }

    if (!progress && !ack.has_value()) {
      ++retries;
    } else if (!progress) {
      ++retries;  // decodable NAK / duplicate ack: immediate go-back
    }

    if (retries > config_.arq.max_retries) {
      // Bounded retry exhausted. From acks alone the TX cannot tell
      // "payload lost" from "payload delivered, every ack lost" — and
      // guessing wrong either aborts on the first recovered ack or
      // silently substitutes payloads in the delivered stream. This
      // channel owns both endpoints (exactly like the controlling PC of
      // the paper's test bed), so reconcile against the receiver before
      // deciding the payload's fate.
      if (rx_.expected() > tx_acked_) {
        // The receiver accepted this sequence: the payload is in
        // delivered_payloads() and only the acks were lost. Count it
        // delivered and consume its sequence slot.
        results[base] = SendResult{true, tx_acked_, attempts[base]};
        ++stats_.delivered;
        ++stats_.reconciled;
        ++tx_acked_;
        note_completion(false);
      } else {
        // The receiver still expects this sequence: truly undelivered.
        // Its slot is NOT consumed — the next payload reuses it, so the
        // receiver's in-order expectation stays aligned.
        results[base] = SendResult{false, tx_acked_, attempts[base]};
        ++stats_.abandoned;
        note_completion(true);
      }
      ++base;
      retries = 0;
      backoff = ArqConfig::kTimeoutSlots;
    }
  }
  obs::add_counter("link.offered", n);
  obs::add_counter("link.delivered", stats_.delivered - before.delivered);
  obs::add_counter("link.abandoned", stats_.abandoned - before.abandoned);
  obs::add_counter("link.reconciled", stats_.reconciled - before.reconciled);
  obs::add_counter("link.retransmissions",
                   stats_.retransmissions - before.retransmissions);
  obs::add_counter("link.timeouts", stats_.timeouts - before.timeouts);
  obs::add_counter("link.rejected_acks",
                   stats_.rejected_acks - before.rejected_acks);
  obs::add_counter("link.resync_slots",
                   stats_.resync_slots - before.resync_slots);
  obs::set_gauge("link.rate_steps", static_cast<double>(rate_steps_));
  return results;
}

LinkStats LinkChannel::stats() const {
  LinkStats s = stats_;
  s.sync_losses = sync_.sync_losses();
  s.relocks = sync_.relocks();
  s.slots = tick_;
  s.rate_steps = rate_steps_;
  return s;
}

fault::HealthReport LinkChannel::health() const {
  const LinkStats s = stats();
  fault::HealthReport report;

  if (!s.accounting_closed()) {
    report.add("arq", fault::HealthStatus::kFailed,
               "frame accounting violated: offered=" +
                   std::to_string(s.offered) + " != delivered=" +
                   std::to_string(s.delivered) + " + abandoned=" +
                   std::to_string(s.abandoned));
  } else if (s.abandoned > 0) {
    report.add("arq", fault::HealthStatus::kDegraded,
               std::to_string(s.abandoned) + "/" + std::to_string(s.offered) +
                   " payloads abandoned after " +
                   std::to_string(config_.arq.max_retries) + " retries");
  } else if (s.reconciled > 0) {
    report.add("arq", fault::HealthStatus::kDegraded,
               std::to_string(s.reconciled) + "/" + std::to_string(s.offered) +
                   " payloads delivered but every ack lost "
                   "(endpoint reconciliation)");
  } else {
    report.add("arq", fault::HealthStatus::kOk,
               s.retransmissions == 0
                   ? ""
                   : std::to_string(s.retransmissions) +
                         " retransmissions masked all channel errors");
  }

  report.add(
      "sync",
      s.sync_losses == 0 ? fault::HealthStatus::kOk
                         : fault::HealthStatus::kDegraded,
      s.sync_losses == 0
          ? ""
          : std::to_string(s.sync_losses) + " sync losses, " +
                std::to_string(s.resync_slots) + " slots hunting, " +
                std::to_string(s.relocks) + " relocks");

  if (rate_steps_ == 0) {
    report.add("rate", fault::HealthStatus::kOk, "");
  } else {
    report.add("rate", fault::HealthStatus::kDegraded,
               "stepped down " +
                   std::to_string(GbitsPerSec::from_ui(config_.format.ui)
                                      .gbps()) +
                   " -> " + std::to_string(current_rate().gbps()) +
                   " Gbps (ui " + std::to_string(config_.format.ui.ps()) +
                   " -> " + std::to_string(current_ui().ps()) + " ps)");
  }
  return report;
}

// ------------------------------------------------------------- transports --

LinkChannel::Transport make_fault_transport(const fault::FaultPlan& plan,
                                            const std::string& component) {
  return [slice = plan.component(component)](
             const testbed::TestbedPacket& packet, std::uint64_t tick,
             double severity_scale) {
    LinkChannel::TransferOutcome out;
    out.packet = packet;
    if (!slice.any()) {
      return out;  // empty plan: byte-identical, zero RNG draws
    }
    if (slice.active(fault::FaultKind::kLossOfSignal, tick)) {
      out.captured = false;
      return out;
    }
    if (slice.active(fault::FaultKind::kSyncLoss, tick)) {
      out.frame_ok = false;
    }
    const double severity =
        slice.severity(fault::FaultKind::kFrameCorruption, tick) *
        severity_scale;
    if (severity > 0.0) {
      // Decisions keyed on (plan seed, component, tick) only: the stream
      // is reproducible at every MGT_THREADS and any call order.
      Rng rng = slice.rng(tick);
      for (std::size_t ch = 0; ch < testbed::kDataChannels; ++ch) {
        BitVector& lane = out.packet.payload[ch];
        for (std::size_t k = 0; k < lane.size(); ++k) {
          if (rng.chance(severity)) {
            lane.set(k, !lane.get(k));
          }
        }
      }
      for (std::size_t h = 0; h < testbed::kHeaderChannels; ++h) {
        if (rng.chance(severity)) {
          out.packet.header ^= static_cast<std::uint8_t>(1u << h);
        }
      }
    }
    return out;
  };
}

LinkChannel::Transport make_testbed_transport(testbed::OpticalTestbed& bed) {
  return [&bed](const testbed::TestbedPacket& packet, std::uint64_t /*tick*/,
                double /*severity_scale*/) {
    const testbed::OpticalTestbed::SingleResult result = bed.send_one(packet);
    return LinkChannel::TransferOutcome{result.received, result.frame_ok,
                                        result.captured};
  };
}

LinkChannel::Transport make_routed_transport(testbed::OpticalTestbed& bed,
                                             std::size_t input_port,
                                             std::uint32_t destination) {
  return [&bed, input_port, destination](
             const testbed::TestbedPacket& packet, std::uint64_t /*tick*/,
             double /*severity_scale*/) {
    const testbed::OpticalTestbed::RoutedResult result =
        bed.send_routed(packet, input_port, destination);
    if (!result.routed) {
      return LinkChannel::TransferOutcome{packet, false, false};
    }
    return LinkChannel::TransferOutcome{result.signal.received,
                                        result.signal.frame_ok,
                                        result.signal.captured};
  };
}

}  // namespace mgt::link
