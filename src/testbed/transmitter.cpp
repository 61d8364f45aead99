#include "testbed/transmitter.hpp"

#include <string>

#include "digital/bitstream.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mgt::testbed {

namespace {

constexpr std::uint8_t kUsbAddress = 6;
/// FPGA-direct outputs (frame/header) carry this timing uncertainty.
constexpr Picoseconds kFpgaIoRjSigma{18.0};
/// Calibrated so the CMOS sideband lines up with the PECL data path
/// (serializer 220 ps + buffer 160 ps + delay-line insertion 900 ps).
constexpr Picoseconds kFpgaIoDelay{1280.0};

}  // namespace

OpticalTransmitter::OpticalTransmitter(Config config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      usb_device_(kUsbAddress, dlc_.usb_handler()),
      usb_host_(usb_device_) {
  config_.format.validate();
  usb_device_.set_bulk_handler(1, dlc_.usb_bulk_pattern_handler());

  dig::Bitstream bitstream;
  bitstream.design_name = "optical-testbed-tx";
  bitstream.payload.assign(512, 0x3C);
  dlc_.configure(bitstream);

  usb_host_.write_register(
      dig::reg::kLaneCount,
      static_cast<std::uint32_t>(
          pecl::SerializerTree(config_.channel.serializer, rng_.fork())
              .total_lanes()));

  channels_.reserve(kHighSpeedChannels);
  for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
    channels_.push_back(HighSpeedChannel{
        .serializer =
            pecl::SerializerTree(config_.channel.serializer, rng_.fork()),
        .buffer = pecl::OutputBuffer(config_.channel.buffer, rng_.fork()),
        .delay = pecl::ProgrammableDelay(pecl::ProgrammableDelay::Config{},
                                         rng_.fork()),
    });
    // Per-channel fault slices: "tx.ch<k>.serializer" / "tx.ch<k>.delay".
    const std::string prefix = "tx.ch" + std::to_string(ch);
    channels_.back().serializer.set_faults(
        config_.channel.faults.component(prefix + ".serializer"));
    channels_.back().delay.set_faults(
        config_.channel.faults.component(prefix + ".delay"));
  }
}

void OpticalTransmitter::set_channel_delay_code(std::size_t channel,
                                                std::size_t code) {
  MGT_CHECK(channel < channels_.size(), "channel index out of range");
  channels_[channel].delay.set_code(code);
}

const pecl::ProgrammableDelay& OpticalTransmitter::channel_delay(
    std::size_t channel) const {
  MGT_CHECK(channel < channels_.size(), "channel index out of range");
  return channels_[channel].delay;
}

void OpticalTransmitter::program_channel(std::uint32_t channel,
                                         const BitVector& bits) {
  // Stream the whole bank in one bulk transfer: [channel | bits | words].
  std::vector<std::uint8_t> payload;
  payload.reserve(8 + (bits.size() + 31) / 32 * 4);
  auto put_u32 = [&](std::uint32_t v) {
    payload.push_back(static_cast<std::uint8_t>(v & 0xFF));
    payload.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    payload.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
    payload.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
  };
  put_u32(channel);
  put_u32(static_cast<std::uint32_t>(bits.size()));
  for (std::size_t w = 0; w * 32 < bits.size(); ++w) {
    std::uint32_t word = 0;
    for (std::size_t b = 0; b < 32 && w * 32 + b < bits.size(); ++b) {
      word |= static_cast<std::uint32_t>(bits.get(w * 32 + b)) << b;
    }
    put_u32(word);
  }
  usb_host_.bulk_write(1, payload);
}

OpticalTransmitter::Output OpticalTransmitter::transmit(
    const TestbedPacket& packet, Picoseconds t_start) {
  Output out;
  out.bits = build_slot(config_.format, packet);
  out.ui = config_.format.ui;

  const GbitsPerSec rate = GbitsPerSec::from_ui(config_.format.ui);
  dlc_.check_lane_rate(rate);

  // Program every channel bank over USB, then start the run.
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    program_channel(static_cast<std::uint32_t>(ch), out.bits.data[ch]);
  }
  program_channel(kClockChannel, out.bits.clock);
  usb_host_.write_register(dig::reg::kCtrl, dig::reg::kCtrlModePattern |
                                                dig::reg::kCtrlStart);

  // Digital phase (serial: shared DLC/USB state): select each bank in
  // channel order and read back the serial sequence it will play.
  std::array<BitVector, kHighSpeedChannels> serial;
  for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
    usb_host_.write_register(dig::reg::kChannelSel,
                             static_cast<std::uint32_t>(ch));
    const BitVector& bits =
        ch < kDataChannels ? out.bits.data[ch] : out.bits.clock;
    serial[ch] = dlc_.expected_serial(bits.size());
  }

  // Analog phase: each channel's serializer/buffer/delay chain owns its own
  // Rng stream and touches only its own hardware, so the five channels
  // render concurrently with results independent of the thread count.
  std::array<sig::EdgeStream, kHighSpeedChannels> rendered;
  util::parallel_for(kHighSpeedChannels, [&](std::size_t ch) {
    auto& hw = channels_[ch];
    sig::EdgeStream edges = hw.serializer.serialize(serial[ch], rate, t_start);
    edges = hw.buffer.apply(edges);
    rendered[ch] = hw.delay.apply(edges);
  });
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    out.data[ch] = std::move(rendered[ch]);
  }
  out.clock = std::move(rendered[kClockChannel]);

  // Frame + header come straight off FPGA I/O: slower edges, more jitter,
  // a different (CMOS) delay.
  auto fpga_offset = [this](std::size_t, Picoseconds) {
    return Picoseconds{rng_.gaussian(0.0, kFpgaIoRjSigma.ps())};
  };
  const Picoseconds fpga_t0 = t_start + kFpgaIoDelay;
  BitVector frame_bits = out.bits.frame;
  out.frame = sig::EdgeStream::from_bits(frame_bits, config_.format.ui,
                                         fpga_t0, fpga_offset);
  for (std::size_t ch = 0; ch < kHeaderChannels; ++ch) {
    out.header[ch] = sig::EdgeStream::from_bits(
        out.bits.header[ch], config_.format.ui, fpga_t0, fpga_offset);
  }

  const auto& hw0 = channels_.front();
  hw0.buffer.contribute(out.chain);
  out.levels = hw0.buffer.levels();
  out.grid_origin = t_start + hw0.serializer.total_prop_delay() +
                    hw0.buffer.config().prop_delay +
                    pecl::ProgrammableDelay::kInsertionDelay;
  return out;
}

}  // namespace mgt::testbed
