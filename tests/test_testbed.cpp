// Tests for src/testbed: Fig 4 slot format, transmitter, source-
// synchronous receiver, and the end-to-end optical test bed.
#include <gtest/gtest.h>

#include "testbed/framing.hpp"
#include "testbed/receiver.hpp"
#include "testbed/testbed.hpp"
#include "testbed/transmitter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mgt::testbed {
namespace {

using mgt::BitVector;
using mgt::Error;
using mgt::RecoverableError;
using mgt::Rng;

TestbedPacket random_packet(Rng& rng) {
  TestbedPacket p;
  for (auto& lane : p.payload) {
    lane = BitVector::random(32, rng);
  }
  p.header = static_cast<std::uint8_t>(rng.below(16));
  return p;
}

// ---------------------------------------------------------------- framing --

TEST(SlotFormat, Fig4NumbersCloseExactly) {
  const SlotFormat fmt;
  EXPECT_NO_THROW(fmt.validate());
  // Paper callouts on Fig 4:
  EXPECT_DOUBLE_EQ(fmt.slot_duration().ns(), 25.6);    // 64 x 400 ps
  EXPECT_DOUBLE_EQ(fmt.data_duration().ns(), 12.8);    // 32 x 400 ps
  EXPECT_DOUBLE_EQ(fmt.window_duration().ns(), 18.4);  // 46 x 400 ps
  EXPECT_DOUBLE_EQ(fmt.guard_bits * fmt.ui.ps(), 2000.0);  // 2.0 ns
  EXPECT_DOUBLE_EQ(fmt.dead_bits * fmt.ui.ps(), 3200.0);   // 3.2 ns
  EXPECT_EQ(fmt.window_start(), 13u);
  EXPECT_EQ(fmt.data_start(), 20u);
  EXPECT_EQ(fmt.data_end(), 52u);
  EXPECT_EQ(fmt.window_end(), 59u);
}

TEST(SlotFormat, InconsistentLayoutThrows) {
  SlotFormat fmt;
  fmt.guard_bits = 6;  // 8 + 12 + 46 != 64
  EXPECT_THROW(fmt.validate(), Error);
  fmt = SlotFormat{};
  fmt.pre_clock_bits = 8;  // 8 + 32 + 7 != 46
  EXPECT_THROW(fmt.validate(), Error);
}

TEST(Framing, BuildSlotShapes) {
  const SlotFormat fmt;
  Rng rng(1);
  const auto packet = random_packet(rng);
  const auto slot = build_slot(fmt, packet);

  // Clock toggles through the window only: 46 transitions.
  EXPECT_EQ(slot.clock.transition_count(), 46u);
  EXPECT_FALSE(slot.clock.get(0));
  EXPECT_FALSE(slot.clock.get(63));
  // Frame spans exactly the data window.
  EXPECT_EQ(slot.frame.popcount(), 32u);
  EXPECT_TRUE(slot.frame.get(fmt.data_start()));
  EXPECT_FALSE(slot.frame.get(fmt.data_start() - 1));
  // Data channels idle outside the data window.
  for (const auto& ch : slot.data) {
    EXPECT_EQ(ch.size(), 64u);
    for (std::size_t i = 0; i < fmt.data_start(); ++i) {
      EXPECT_FALSE(ch.get(i));
    }
  }
}

class FramingRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramingRoundTrip, ParseInvertsBuild) {
  const SlotFormat fmt;
  Rng rng(GetParam());
  const auto packet = random_packet(rng);
  const auto slot = build_slot(fmt, packet);
  const auto parsed = parse_slot(fmt, slot);
  EXPECT_EQ(parsed.header, packet.header);
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    EXPECT_EQ(parsed.payload[ch], packet.payload[ch]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramingRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Framing, WrongPayloadWidthThrows) {
  const SlotFormat fmt;
  TestbedPacket packet;
  packet.payload[0] = BitVector(31);
  packet.payload[1] = BitVector(32);
  packet.payload[2] = BitVector(32);
  packet.payload[3] = BitVector(32);
  EXPECT_THROW(build_slot(fmt, packet), Error);
}

// ------------------------------------------------------------ transmitter --

class TransmitterTest : public ::testing::Test {
protected:
  OpticalTransmitter::Config make_config() {
    OpticalTransmitter::Config config;
    config.channel = core::presets::optical_testbed();
    return config;
  }
};

TEST_F(TransmitterTest, OutputCarriesSlotBits) {
  OpticalTransmitter tx(make_config(), 5);
  Rng rng(6);
  const auto packet = random_packet(rng);
  const auto out = tx.transmit(packet, Picoseconds{0.0});

  // Each high-speed channel, sampled on the grid, carries its slot bits.
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    EXPECT_EQ(out.data[ch].to_bits(64, out.ui,
                                   Picoseconds{out.grid_origin.ps()}),
              out.bits.data[ch])
        << "channel " << ch;
  }
  EXPECT_EQ(out.clock.to_bits(64, out.ui, Picoseconds{out.grid_origin.ps()}),
            out.bits.clock);
}

TEST_F(TransmitterTest, ChannelDelayLinesShiftChannels) {
  OpticalTransmitter tx(make_config(), 7);
  Rng rng(8);
  const auto packet = random_packet(rng);

  const auto before = tx.transmit(packet, Picoseconds{0.0});
  tx.set_channel_delay_code(0, 100);  // +1 ns on data channel 0
  const auto after = tx.transmit(packet, Picoseconds{0.0});

  const double shift = after.data[0].transitions()[0].time.ps() -
                       before.data[0].transitions()[0].time.ps();
  // Tolerance covers the per-edge RJ of two independent acquisitions.
  EXPECT_NEAR(shift, tx.channel_delay(0).actual_delay(100).ps(), 20.0);
  // Other channels unmoved (within jitter).
  const double other = after.data[1].transitions()[0].time.ps() -
                       before.data[1].transitions()[0].time.ps();
  EXPECT_NEAR(other, 0.0, 20.0);
}

TEST_F(TransmitterTest, SidebandTimingTracksDataPath) {
  OpticalTransmitter tx(make_config(), 9);
  Rng rng(10);
  const auto out = tx.transmit(random_packet(rng), Picoseconds{0.0});
  // The frame rises near the data-start boundary of the high-speed grid.
  ASSERT_FALSE(out.frame.empty());
  const double frame_rise = out.frame.transitions()[0].time.ps();
  const double expected =
      out.grid_origin.ps() + 20.0 * out.ui.ps();  // data_start = bit 20
  EXPECT_NEAR(frame_rise, expected, 150.0);  // CMOS path, looser alignment
}

// --------------------------------------------------------------- receiver --

TEST(Receiver, RecoversCleanSlot) {
  OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  OpticalTransmitter tx(config, 11);
  Receiver rx(Receiver::Config{});
  Rng rng(12);
  const auto packet = random_packet(rng);
  const auto signals = tx.transmit(packet, Picoseconds{0.0});
  const auto result = rx.receive(signals, Picoseconds{0.0});

  EXPECT_TRUE(result.captured);
  EXPECT_TRUE(result.frame_ok);
  EXPECT_EQ(result.clock_edges_seen, 46u);
  EXPECT_EQ(result.packet.header, packet.header);
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    EXPECT_EQ(result.packet.payload[ch], packet.payload[ch]);
  }
}

TEST(Receiver, MisalignedDataChannelCorrupts_ThenDelayFixesIt) {
  OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  OpticalTransmitter tx(config, 13);
  Receiver rx(Receiver::Config{});
  Rng rng(14);
  const auto packet = random_packet(rng);

  // Skew data channel 0 by ~half a UI: wrong bits sampled.
  tx.set_channel_delay_code(0, 22);  // 220 ps late
  const auto skewed = tx.transmit(packet, Picoseconds{0.0});
  const auto bad = rx.receive(skewed, Picoseconds{0.0});
  EXPECT_NE(bad.packet.payload[0], packet.payload[0]);

  // Re-align every channel with the same programmed delay: clean again.
  for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
    tx.set_channel_delay_code(ch, 22);
  }
  const auto aligned = tx.transmit(packet, Picoseconds{0.0});
  const auto good = rx.receive(aligned, Picoseconds{0.0});
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    EXPECT_EQ(good.packet.payload[ch], packet.payload[ch]);
  }
}

TEST(Receiver, DeadClockMeansNoCapture) {
  OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  OpticalTransmitter tx(config, 15);
  Receiver rx(Receiver::Config{});
  Rng rng(16);
  auto signals = tx.transmit(random_packet(rng), Picoseconds{0.0});
  signals.clock = sig::EdgeStream{false};  // clock channel died
  const auto result = rx.receive(signals, Picoseconds{0.0});
  EXPECT_FALSE(result.captured);
}

// ---------------------------------------------------------------- testbed --

TEST(OpticalTestbed, SinglePacketEndToEnd) {
  OpticalTestbed tb(OpticalTestbed::Config{}, 17);
  Rng rng(18);
  const auto packet = random_packet(rng);
  const auto result = tb.send_one(packet);
  EXPECT_TRUE(result.captured);
  EXPECT_TRUE(result.frame_ok);
  EXPECT_TRUE(result.header_ok);
  EXPECT_EQ(result.payload_bit_errors, 0u);
}

TEST(OpticalTestbed, RunDeliversEverythingErrorFree) {
  OpticalTestbed tb(OpticalTestbed::Config{}, 19);
  const auto stats = tb.run(0.3, 150);

  EXPECT_GT(stats.fabric.injected, 200u);
  EXPECT_EQ(stats.fabric.delivered, stats.fabric.injected);
  EXPECT_GT(stats.signal_checks, 20u);
  EXPECT_EQ(stats.payload_bit_errors, 0u);
  EXPECT_EQ(stats.header_errors, 0u);
  EXPECT_EQ(stats.frame_failures, 0u);
  EXPECT_GT(stats.mean_latency_slots, 4.0);
  EXPECT_GT(stats.budget.margin_db(), 3.0);  // healthy optical link
}

TEST(OpticalTestbed, DarkChannelsDegradeInsteadOfThrowing) {
  // Loss of signal on every high-speed channel for the whole run.
  OpticalTestbed::Config config;
  config.faults.schedule(
      {.kind = fault::FaultKind::kLossOfSignal, .component = "optics"});
  OpticalTestbed tb(config, 20);
  Rng rng(21);
  // Every channel goes dark, but the transfer completes in degraded mode:
  // nothing captured, every payload bit counted as an error.
  const auto result = tb.send_one(random_packet(rng));
  EXPECT_EQ(result.los_channels, kHighSpeedChannels);
  EXPECT_FALSE(result.captured);
  EXPECT_EQ(result.payload_bit_errors, kDataChannels * SlotFormat{}.data_bits);
}

TEST(OpticalTestbed, DetectorStillThrowsRecoverableErrorDirectly) {
  // The underlying contract is unchanged for direct users: a budget
  // violation at the detector is a RecoverableError (and an Error).
  vortex::Photodetector detector(Rng(5));
  vortex::OpticalStream weak;
  weak.power_dbm = -40.0;
  EXPECT_THROW(detector.detect(weak), RecoverableError);
}

}  // namespace
}  // namespace mgt::testbed
