// Optical Test Bed transmitter (Fig 5, left half).
//
// One DLC drives five high-speed channels (four payload + one source-
// synchronous clock) through per-channel PECL 8:1 serializers, SiGe output
// buffers and programmable alignment delay lines (10 ps resolution over
// 10 ns, Section 3), plus the lower-speed Frame and four Header channels
// directly from FPGA I/O.
#pragma once

#include <array>
#include <cstdint>

#include "core/test_system.hpp"
#include "pecl/delayline.hpp"
#include "testbed/framing.hpp"

namespace mgt::testbed {

/// Indices of the five high-speed channels.
inline constexpr std::size_t kClockChannel = kDataChannels;  // after data
inline constexpr std::size_t kHighSpeedChannels = kDataChannels + 1;

class OpticalTransmitter {
public:
  struct Config {
    SlotFormat format{};
    /// High-speed channel hardware (preset: core::presets::optical_testbed).
    core::ChannelConfig channel;
  };

  /// All transmitted signals for one packet slot.
  struct Output {
    std::array<sig::EdgeStream, kDataChannels> data;
    sig::EdgeStream clock;
    sig::EdgeStream frame;
    std::array<sig::EdgeStream, kHeaderChannels> header;
    /// Bit sequences the channels carry (for verification).
    SlotBits bits;
    /// Bandwidth chain and levels of the high-speed outputs.
    sig::FilterChain chain;
    sig::PeclLevels levels;
    /// Bit-boundary origin of the high-speed channels (excluding per-
    /// channel programmed delay).
    Picoseconds grid_origin{0.0};
    Picoseconds ui{400.0};
  };

  OpticalTransmitter(Config config, std::uint64_t seed);

  /// Programs the alignment delay line of a high-speed channel
  /// (0..3 = data, 4 = clock).
  void set_channel_delay_code(std::size_t channel, std::size_t code);
  [[nodiscard]] const pecl::ProgrammableDelay& channel_delay(
      std::size_t channel) const;

  /// Serializes one packet into the five high-speed + five sideband
  /// signals, starting at `t_start`.
  Output transmit(const TestbedPacket& packet, Picoseconds t_start);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] dig::Dlc& dlc() { return dlc_; }

private:
  /// Uploads `bits` into the DLC pattern bank for `channel` over USB.
  void program_channel(std::uint32_t channel, const BitVector& bits);

  Config config_;
  Rng rng_;
  dig::Dlc dlc_;
  dig::UsbDevice usb_device_;
  dig::UsbHost usb_host_;
  struct HighSpeedChannel {
    pecl::SerializerTree serializer;
    pecl::OutputBuffer buffer;
    pecl::ProgrammableDelay delay;
  };
  std::vector<HighSpeedChannel> channels_;
};

}  // namespace mgt::testbed
