#include "testbed/receiver.hpp"

#include "util/error.hpp"

namespace mgt::testbed {
namespace {

/// Strobe placement after each clock transition, as a fraction of UI.
constexpr double kStrobeFraction = 0.5;

}  // namespace

Receiver::Receiver(Config config) : config_(config) {
  config_.format.validate();
}

Receiver::Result Receiver::receive(const OpticalTransmitter::Output& signals,
                                   Picoseconds slot_start) const {
  const SlotFormat& fmt = config_.format;
  Result out;

  // Clock transitions within this slot mark the bit boundaries.
  const Picoseconds slot_end{slot_start.ps() +
                             fmt.slot_duration().ps() + fmt.ui.ps()};
  const auto clock_edges = signals.clock.window(slot_start, slot_end);
  out.clock_edges_seen = clock_edges.size();

  // Boundary j of the valid window is clock transition j; payload bit k of
  // the slot rides boundary pre_clock_bits + k.
  const std::size_t first_data_edge = fmt.pre_clock_bits;
  if (clock_edges.size() < first_data_edge + fmt.data_bits) {
    out.captured = false;  // receiver never finished start-up: no capture
    return out;
  }
  MGT_CHECK(out.clock_edges_seen >= kStartupEdges,
            "clock channel dead during slot");
  out.captured = true;

  const double strobe_offset = kStrobeFraction * fmt.ui.ps();
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    BitVector lane(fmt.data_bits);
    for (std::size_t k = 0; k < fmt.data_bits; ++k) {
      // The capture pipeline needs kStartupEdges clock transitions before
      // it can latch data: earlier bits are lost (this is what the format's
      // pre-clocks pay for).
      if (first_data_edge + k < kStartupEdges) {
        if (ch == 0) {
          ++out.bits_lost_to_startup;
        }
        continue;
      }
      const Picoseconds strobe{
          clock_edges[first_data_edge + k].time.ps() + strobe_offset};
      lane.set(k, signals.data[ch].level_at(strobe));
    }
    out.packet.payload[ch] = std::move(lane);
  }

  // Header and frame are quasi-static across the window: sample mid-window.
  const Picoseconds mid{clock_edges[clock_edges.size() / 2].time.ps()};
  for (std::size_t ch = 0; ch < kHeaderChannels; ++ch) {
    if (signals.header[ch].level_at(mid)) {
      out.packet.header |= static_cast<std::uint8_t>(1u << ch);
    }
  }

  // Frame integrity: asserted at the first and last payload strobes.
  const Picoseconds first_strobe{
      clock_edges[first_data_edge].time.ps() + strobe_offset};
  const Picoseconds last_strobe{
      clock_edges[first_data_edge + fmt.data_bits - 1].time.ps() +
      strobe_offset};
  out.frame_ok = signals.frame.level_at(first_strobe) &&
                 signals.frame.level_at(last_strobe);
  return out;
}

}  // namespace mgt::testbed
