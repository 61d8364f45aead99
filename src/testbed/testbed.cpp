#include "testbed/testbed.hpp"

#include <array>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mgt::testbed {
namespace {

constexpr std::size_t kPorts = 16;  // fabric heights; 4 header bits (Fig 4)
constexpr std::size_t kAngles = 4;
/// Every Nth delivered packet takes the full signal path.
constexpr std::size_t kSignalCheckPeriod = 8;

}  // namespace

OpticalTestbed::OpticalTestbed(Config config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      tx_(OpticalTransmitter::Config{.format = config.format,
                                     .channel = config.channel},
          seed ^ 0x7E57BEDull),
      rx_(Receiver::Config{.format = config.format}),
      fabric_(vortex::Geometry::for_heights(kPorts, kAngles)),
      optics_faults_(config.faults.component("optics")) {
  config_.format.validate();
  fabric_.set_faults(config_.faults.component("fabric"));
  // One laser/detector pair per high-speed channel, on a WDM grid.
  for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
    vortex::LaserDriver::Config laser;
    laser.wavelength_nm += 1.6 * static_cast<double>(ch);  // 200 GHz grid
    lasers_.emplace_back(laser, rng_.fork());
    detectors_.emplace_back(rng_.fork());
  }
}

OpticalTestbed::SingleResult OpticalTestbed::send_one(
    const TestbedPacket& packet) {
  auto signals = tx_.transmit(packet, Picoseconds{0.0});
  const std::uint64_t send_idx = sends_++;

  // E/O -> fiber -> O/E, per channel. Each WDM lane has its own laser and
  // detector (with their own Rng streams) and the fiber model is read-only,
  // so the five conversions run concurrently. A channel under scheduled
  // loss-of-signal is flatlined instead of aborting the transfer: the
  // receiver keeps running degraded. Per-channel flags are reduced in
  // channel order after the parallel section so the totals never depend on
  // thread scheduling. The fixed link budget clears the detectors'
  // sensitivity, so detect() does not throw here.
  std::array<std::uint8_t, kHighSpeedChannels> dark{};
  util::parallel_for(kHighSpeedChannels, [&](std::size_t ch) {
    sig::EdgeStream& electrical =
        ch < kDataChannels ? signals.data[ch] : signals.clock;
    if (optics_faults_.any(fault::FaultKind::kLossOfSignal) &&
        optics_faults_.active(fault::FaultKind::kLossOfSignal, send_idx, ch)) {
      electrical = sig::EdgeStream(false);
      dark[ch] = 1;
      return;
    }
    const auto launched = lasers_[ch].modulate(electrical);
    electrical = detectors_[ch].detect(path_.propagate(launched));
  });
  // Frame/header ride the electrical sideband (lower speed, no optics in
  // the present test bed).
  const Picoseconds optical_delay =
      path_.delay() + vortex::LaserDriver::kPropDelay +
      vortex::Photodetector::kPropDelay;
  signals.frame = signals.frame.shifted(optical_delay);
  for (auto& h : signals.header) {
    h = h.shifted(optical_delay);
  }

  const auto result = rx_.receive(signals, optical_delay);

  SingleResult out;
  out.sent = packet;
  out.received = result.packet;
  out.frame_ok = result.frame_ok;
  out.captured = result.captured;
  out.header_ok = result.packet.header == packet.header;
  for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
    out.los_channels += dark[ch];
  }
  if (result.captured) {
    for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
      out.payload_bit_errors +=
          result.packet.payload[ch].hamming_distance(packet.payload[ch]);
    }
  } else {
    out.payload_bit_errors = kDataChannels * config_.format.data_bits;
  }
  return out;
}

OpticalTestbed::RoutedResult OpticalTestbed::send_routed(
    const TestbedPacket& packet, std::size_t input_port,
    std::uint32_t destination) {
  MGT_CHECK(input_port < kPorts, "input port out of range");
  MGT_CHECK(destination < kPorts, "destination port out of range");

  // Bounds that make the call total: enough slots to drain a full fabric
  // at the input, and enough for any surviving packet to spiral out.
  const std::uint64_t max_wait = 4 * fabric_.geometry().node_count();
  const std::uint64_t max_route = 16 * fabric_.geometry().node_count();

  vortex::Packet p;
  p.id = next_packet_id_++;
  const std::uint64_t id = p.id;
  p.destination = destination;
  std::vector<BitVector> lanes;
  lanes.reserve(kDataChannels);
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    lanes.push_back(packet.payload[ch]);
  }
  p.payload = BitVector::interleave(lanes);

  RoutedResult out;
  std::vector<vortex::Delivery> ejected;
  if (!fabric_.inject_with_retry(p, input_port, max_wait, ejected)) {
    return out;  // entry node never freed: routed stays false
  }

  std::optional<vortex::Delivery> ours;
  auto scan = [&](const std::vector<vortex::Delivery>& deliveries) {
    for (const auto& d : deliveries) {
      if (d.packet.id == id) {
        ours = d;
      }
    }
  };
  scan(ejected);
  for (std::uint64_t s = 0; !ours.has_value() && s < max_route; ++s) {
    if (fabric_.occupancy() == 0) {
      break;  // our packet was dropped by a failed node
    }
    scan(fabric_.step());
  }
  if (!ours.has_value()) {
    return out;
  }
  MGT_CHECK(ours->output_port == destination,
            "fabric delivered a routed packet to the wrong port");
  out.routed = true;
  out.latency_slots = ours->latency_slots();

  // The packet leaves the fabric on the destination port's wavelengths;
  // from here it takes the same analog chain as a point-to-point slot.
  TestbedPacket arrived;
  arrived.header = packet.header;
  const auto arrived_lanes = ours->packet.payload.deinterleave(kDataChannels);
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    arrived.payload[ch] = arrived_lanes[ch];
  }
  out.signal = send_one(arrived);
  return out;
}

void OpticalTestbed::signal_check(const vortex::Packet& packet,
                                  RunStats& stats) {
  TestbedPacket tb;
  tb.header = static_cast<std::uint8_t>(packet.destination);
  MGT_CHECK(packet.payload.size() == kDataChannels * config_.format.data_bits,
            "fabric packet payload width mismatch");
  const auto lanes = packet.payload.deinterleave(kDataChannels);
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    tb.payload[ch] = lanes[ch];
  }

  const auto result = send_one(tb);
  ++stats.signal_checks;
  stats.payload_bit_errors += result.payload_bit_errors;
  stats.los_events += result.los_channels;
  if (!result.header_ok) {
    ++stats.header_errors;
  }
  if (!result.frame_ok) {
    ++stats.frame_failures;
  }
}

OpticalTestbed::RunStats OpticalTestbed::run(double offered_load,
                                             std::size_t n_slots) {
  MGT_CHECK(offered_load >= 0.0 && offered_load <= 1.0);
  RunStats stats;
  stats.budget = link_budget();

  RunningStats latency;
  RunningStats deflections;
  std::uint64_t min_lat = ~0ull;
  std::uint64_t max_lat = 0;

  auto absorb = [&](const std::vector<vortex::Delivery>& deliveries) {
    for (const auto& d : deliveries) {
      latency.add(static_cast<double>(d.latency_slots()));
      deflections.add(static_cast<double>(d.packet.deflections));
      min_lat = std::min(min_lat, d.latency_slots());
      max_lat = std::max(max_lat, d.latency_slots());
      MGT_CHECK(d.output_port == d.packet.destination,
                "fabric delivered a packet to the wrong port");
      if (d.packet.id % kSignalCheckPeriod == 0) {
        signal_check(d.packet, stats);
      }
    }
  };

  for (std::size_t slot = 0; slot < n_slots; ++slot) {
    for (std::size_t port = 0; port < kPorts; ++port) {
      if (!rng_.chance(offered_load)) {
        continue;
      }
      vortex::Packet p;
      p.id = next_packet_id_++;
      p.destination = static_cast<std::uint32_t>(rng_.below(kPorts));
      p.payload = BitVector::random(
          kDataChannels * config_.format.data_bits, rng_);
      // A rejected injection is backpressure, not loss: the fabric counts
      // it in stats().rejected_injections and the source simply offers new
      // traffic next slot (ids are offered-traffic ids either way).
      (void)fabric_.inject(std::move(p), port);
    }
    absorb(fabric_.step());
  }
  std::vector<vortex::Delivery> tail;
  fabric_.drain(tail, 100000);
  absorb(tail);

  stats.fabric = fabric_.stats();
  stats.mean_latency_slots = latency.mean();
  stats.mean_deflections = deflections.mean();
  stats.min_latency_slots = latency.count() ? min_lat : 0;
  stats.max_latency_slots = max_lat;
  return stats;
}

}  // namespace mgt::testbed
