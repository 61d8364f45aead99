// Edge-case and negative-path tests across modules: the corners the main
// suites don't reach.
#include <gtest/gtest.h>

#include "digital/dlc.hpp"
#include "digital/jtag.hpp"
#include "digital/usb.hpp"
#include "minitester/minitester.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "testbed/framing.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vortex/fabric.hpp"

namespace mgt {
namespace {

// ----------------------------------------------------------------- signal --

TEST(EdgeCases, EmptyBitVectorMakesEmptyStream) {
  const auto s = sig::EdgeStream::from_bits(BitVector{}, Picoseconds{100.0});
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.level_at(Picoseconds{0.0}));
}

TEST(EdgeCases, FilterChainWithNoPolesIsPassthrough) {
  sig::FilterChain chain;
  chain.reset(Millivolts{1234.0});
  EXPECT_DOUBLE_EQ(chain.output().mv(), 1234.0);
  chain.step(Millivolts{5678.0}, Picoseconds{1.0});
  EXPECT_DOUBLE_EQ(chain.output().mv(), 5678.0);
  EXPECT_DOUBLE_EQ(chain.group_delay().ps(), 0.0);
  EXPECT_DOUBLE_EQ(chain.rise_2080_estimate().ps(), 0.0);
}

TEST(EdgeCases, RenderConstantLineProducesNoCrossings) {
  const sig::EdgeStream flat(true);
  sig::FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{60.0});
  sig::CrossingRecorder recorder(Millivolts{2000.0});
  sig::render(flat, chain, sig::RenderConfig{}, Picoseconds{0.0},
              Picoseconds{5000.0}, {&recorder});
  EXPECT_TRUE(recorder.crossings().empty());
}

TEST(EdgeCases, AmplitudeTrackerWithoutSettledSamples) {
  sig::AmplitudeTracker tracker(Millivolts{2000.0},
                                MvPerPs{1e-9});  // nothing settles
  tracker.on_sample(Picoseconds{0.0}, Millivolts{1600.0});
  tracker.on_sample(Picoseconds{1.0}, Millivolts{2400.0});
  EXPECT_DOUBLE_EQ(tracker.settled_high().mv(), 0.0);  // empty stats
  EXPECT_DOUBLE_EQ(tracker.peak_to_peak().mv(), 800.0);
}

// ---------------------------------------------------------------- digital --

TEST(EdgeCases, DlcLaneCountOutOfRangeThrows) {
  dig::Dlc dlc;
  dlc.regs().write(dig::reg::kLaneCount, 0);
  EXPECT_THROW((void)dlc.lane_count(), Error);
  dlc.regs().write(dig::reg::kLaneCount, 999);
  EXPECT_THROW((void)dlc.lane_count(), Error);
}

TEST(EdgeCases, UsbInWithoutPendingResponseNaks) {
  dig::Dlc dlc;
  dig::UsbDevice device(5, dlc.usb_handler());
  dig::TokenPacket in{.pid = dig::Pid::In, .address = 5, .endpoint = 0};
  const auto wire = device.on_in(in.serialize());
  ASSERT_TRUE(wire.has_value());
  ASSERT_EQ(wire->size(), 1u);
  EXPECT_EQ(dig::decode_pid((*wire)[0]), dig::Pid::Nak);
}

TEST(EdgeCases, UsbDeviceRejectsBadAddress) {
  EXPECT_THROW(dig::UsbDevice(200, [](const auto&) {
                 return std::vector<std::uint8_t>{};
               }),
               Error);
}

TEST(EdgeCases, JtagTckCyclesAccumulate) {
  dig::TapDevice tap(1, nullptr);
  dig::JtagHost host(tap);
  const auto after_reset = host.tck_cycles();
  EXPECT_GE(after_reset, 6u);  // 5 reset clocks + idle entry
  host.read_idcode();
  EXPECT_GT(host.tck_cycles(), after_reset + 32);
}

// ---------------------------------------------------------------- framing --

TEST(EdgeCases, ParseSlotDetectsMissingFrame) {
  const testbed::SlotFormat fmt;
  Rng rng(1);
  testbed::TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector::random(32, rng);
  }
  auto slot = testbed::build_slot(fmt, packet);
  slot.frame = BitVector(fmt.slot_bits);  // frame channel stuck low
  EXPECT_THROW(testbed::parse_slot(fmt, slot), Error);
}

TEST(EdgeCases, ParseSlotDetectsFrameOutsideWindow) {
  const testbed::SlotFormat fmt;
  Rng rng(2);
  testbed::TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector::random(32, rng);
  }
  auto slot = testbed::build_slot(fmt, packet);
  slot.frame = BitVector(fmt.slot_bits, true);  // stuck high everywhere
  EXPECT_THROW(testbed::parse_slot(fmt, slot), Error);
}

// ----------------------------------------------------------------- fabric --

TEST(EdgeCases, DrainGivesUpWhenBudgetTooSmall) {
  vortex::DataVortex fabric(vortex::Geometry::for_heights(16, 4));
  vortex::Packet p;
  p.destination = 9;
  fabric.inject(std::move(p), 0);
  std::vector<vortex::Delivery> out;
  EXPECT_FALSE(fabric.drain(out, 2));  // needs >= 5 slots to traverse
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(fabric.occupancy(), 1u);
  EXPECT_TRUE(fabric.drain(out, 100));
  EXPECT_EQ(out.size(), 1u);
}

TEST(EdgeCases, SnapshotTracksThePacket) {
  vortex::DataVortex fabric(vortex::Geometry::for_heights(8, 4));
  vortex::Packet p;
  p.id = 42;
  p.destination = 3;
  fabric.inject(std::move(p), 1);
  auto snap = fabric.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].second, 42u);
  EXPECT_EQ(snap[0].first.cylinder, 0u);
  EXPECT_EQ(snap[0].first.height, 1u);
  fabric.step();
  snap = fabric.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_GE(snap[0].first.cylinder + snap[0].first.angle, 1u);  // it moved
}

// -------------------------------------------------------------- minitester --

TEST(EdgeCases, LoopbackNeedsEnoughBits) {
  minitester::MiniTester tester(minitester::MiniTester::Config{}, 3);
  tester.program_prbs(7, 1);
  tester.start();
  // Fewer bits than warmup + 1: the slice is invalid and must throw, not
  // underflow.
  EXPECT_THROW(tester.run_loopback(16), Error);
}

TEST(EdgeCases, StuckDutLoopbackIsAllErrors) {
  minitester::MiniTester::Config config;
  config.dut.defect = minitester::Defect::StuckLow;
  minitester::MiniTester tester(config, 4);
  tester.program_prbs(7, 0xACE1);
  tester.start();
  const auto ber = tester.run_loopback(512);
  // PRBS7 is balanced: a stuck-low line is wrong about half the time.
  EXPECT_NEAR(ber.ber(), 0.5, 0.08);
}

// ------------------------------------------------------------------- stats --

TEST(EdgeCases, HistogramReset) {
  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  h.add(-1.0);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.bin(5), 0u);
}

TEST(EdgeCases, RunningStatsSingleSample) {
  RunningStats s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.peak_to_peak(), 0.0);
  EXPECT_DOUBLE_EQ(s.rms(), 7.0);
}

}  // namespace
}  // namespace mgt
