// Tests for the second extension wave: jitter decomposition, flow
// reordering statistics, and receiver start-up / protocol-variant
// behavior.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/decompose.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "signal/jitter.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "testbed/receiver.hpp"
#include "testbed/transmitter.hpp"
#include "util/rng.hpp"
#include "vortex/traffic.hpp"

namespace mgt {
namespace {

// ------------------------------------------------------------- decompose --

/// Crossings with known injected RJ sigma and dual-Dirac DJ.
std::vector<sig::Crossing> synthetic_tie(std::size_t n, double ui,
                                         double rj_sigma, double dj_pp,
                                         Rng& rng) {
  std::vector<sig::Crossing> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    double t = static_cast<double>(k + 1) * ui;
    t += rng.gaussian(0.0, rj_sigma);
    t += rng.chance(0.5) ? dj_pp / 2.0 : -dj_pp / 2.0;
    out.push_back({Picoseconds{t}, k % 2 == 0});
  }
  return out;
}

TEST(Decompose, RecoversPureRj) {
  Rng rng(1);
  const auto crossings = synthetic_tie(50000, 400.0, 3.2, 0.0, rng);
  const auto d = ana::decompose_jitter(crossings, Picoseconds{400.0});
  ASSERT_TRUE(d.valid);
  EXPECT_NEAR(d.rj_sigma.ps(), 3.2, 0.3);
  EXPECT_LT(d.dj_pp.ps(), 1.0);
}

TEST(Decompose, RecoversRjPlusDj) {
  Rng rng(2);
  const auto crossings = synthetic_tie(50000, 400.0, 3.0, 20.0, rng);
  const auto d = ana::decompose_jitter(crossings, Picoseconds{400.0});
  ASSERT_TRUE(d.valid);
  EXPECT_NEAR(d.rj_sigma.ps(), 3.0, 0.5);
  // Dual-Dirac DJ is by construction smaller than the true bimodal p-p
  // (the model's well-known conservatism: DJ(dd) ~ 0.8-0.9 x DJ(pp)).
  EXPECT_GT(d.dj_pp.ps(), 0.75 * 20.0);
  EXPECT_LT(d.dj_pp.ps(), 20.0 + 1.0);
  // TJ extrapolation stays within a few ps of the exact composition.
  EXPECT_NEAR(d.tj_at_ber(1e-12).ps(), 20.0 + 2.0 * 7.034 * 3.0, 7.0);
}

TEST(Decompose, TooFewSamplesIsInvalid) {
  Rng rng(3);
  const auto crossings = synthetic_tie(50, 400.0, 3.0, 0.0, rng);
  EXPECT_FALSE(ana::decompose_jitter(crossings, Picoseconds{400.0}).valid);
}

TEST(Decompose, RealChannelSplitsConsistently) {
  // On the real test-bed channel, decomposition must roughly recover the
  // known budget: RJ sigma ~3.2 ps and DJ tens of ps, with
  // DJ + RJ-spread ~= measured TJ p-p.
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto stim = sys.generate(24000);
  const sig::PeclLevels rails =
      sig::attenuated(stim.levels, stim.chain.gain());
  sig::CrossingRecorder recorder(rails.midpoint());
  sig::RenderConfig config{.levels = stim.levels};
  sig::render(stim.edges, stim.chain, config,
              Picoseconds{stim.t0.ps() + 16.0 * stim.ui.ps()},
              Picoseconds{stim.t0.ps() + 23999.0 * stim.ui.ps()},
              {&recorder});

  const auto d =
      ana::decompose_jitter(recorder.crossings(), stim.ui, stim.t0);
  ASSERT_TRUE(d.valid);
  EXPECT_NEAR(d.rj_sigma.ps(), 3.2, 1.5);
  EXPECT_GT(d.dj_pp.ps(), 10.0);
  EXPECT_LT(d.dj_pp.ps(), 40.0);

  const auto tj = ana::measure_crossover_jitter(recorder.crossings(),
                                                stim.ui, stim.t0);
  EXPECT_NEAR(
      sig::expected_total_jitter_pp(tj.count, d.rj_sigma, d.dj_pp).ps(),
      tj.peak_to_peak.ps(), 8.0);
}

// -------------------------------------------------------------- reorder --

TEST(Reorder, UncontendedTrafficStaysInOrder) {
  const auto geometry = vortex::Geometry::for_heights(16, 4);
  const auto r = vortex::run_traffic(
      geometry, vortex::TrafficPattern::Neighbor, 0.05, 400, 7);
  EXPECT_EQ(r.reorder_rate, 0.0);
}

TEST(Reorder, ContentionCausesFlowReordering) {
  const auto geometry = vortex::Geometry::for_heights(16, 4);
  const auto light = vortex::run_traffic(
      geometry, vortex::TrafficPattern::Uniform, 0.1, 600, 7);
  const auto heavy = vortex::run_traffic(
      geometry, vortex::TrafficPattern::Uniform, 0.9, 600, 7);
  EXPECT_GE(heavy.reorder_rate, light.reorder_rate);
  EXPECT_GT(heavy.reorder_rate, 0.0);  // deflections reorder flows
}

// ------------------------------------------------- receiver start-up ----

testbed::SlotFormat short_preamble_format(std::size_t pre_clocks) {
  testbed::SlotFormat fmt;
  // Keep the 46-bit window: move bits between pre and post clocks.
  fmt.pre_clock_bits = pre_clocks;
  fmt.post_clock_bits = fmt.window_bits - fmt.data_bits - pre_clocks;
  fmt.validate();
  return fmt;
}

TEST(ReceiverStartup, AmplePreClocksLoseNothing) {
  testbed::OpticalTransmitter::Config config;
  config.format = short_preamble_format(7);
  config.channel = core::presets::optical_testbed();
  testbed::OpticalTransmitter tx(config, 5);
  testbed::Receiver rx(testbed::Receiver::Config{.format = config.format});
  Rng rng(6);
  testbed::TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector::random(32, rng);
  }
  const auto result =
      rx.receive(tx.transmit(packet, Picoseconds{0.0}), Picoseconds{0.0});
  EXPECT_EQ(result.bits_lost_to_startup, 0u);
  for (std::size_t ch = 0; ch < testbed::kDataChannels; ++ch) {
    EXPECT_EQ(result.packet.payload[ch], packet.payload[ch]);
  }
}

TEST(ReceiverStartup, TooFewPreClocksTruncateLeadingBits) {
  // Protocol variant with no pre-clocks against a receiver that needs
  // 2 start-up edges: the first two payload bits are lost.
  static_assert(testbed::Receiver::kStartupEdges == 2);
  testbed::OpticalTransmitter::Config config;
  config.format = short_preamble_format(0);
  config.channel = core::presets::optical_testbed();
  testbed::OpticalTransmitter tx(config, 7);
  testbed::Receiver rx(testbed::Receiver::Config{.format = config.format});
  Rng rng(8);
  testbed::TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector(32, true);  // all ones: any lost bit reads as 0
  }
  const auto result =
      rx.receive(tx.transmit(packet, Picoseconds{0.0}), Picoseconds{0.0});
  EXPECT_EQ(result.bits_lost_to_startup, 2u);
  EXPECT_FALSE(result.packet.payload[0].get(0));
  EXPECT_FALSE(result.packet.payload[0].get(1));
  EXPECT_TRUE(result.packet.payload[0].get(2));
}

TEST(ReceiverStartup, ProtocolSweepFindsMinimumPreamble) {
  // The protocol study the test bed exists for: sweep the pre-clock count
  // and find the smallest preamble the receiver tolerates.
  std::size_t minimum = 99;
  for (std::size_t pre = 0; pre <= 7; ++pre) {
    testbed::OpticalTransmitter::Config config;
    config.format = short_preamble_format(pre);
    config.channel = core::presets::optical_testbed();
    testbed::OpticalTransmitter tx(config, 11);
    testbed::Receiver rx(testbed::Receiver::Config{.format = config.format});
    Rng rng(12);
    testbed::TestbedPacket packet;
    for (auto& lane : packet.payload) {
      lane = BitVector::random(32, rng);
    }
    const auto result =
        rx.receive(tx.transmit(packet, Picoseconds{0.0}), Picoseconds{0.0});
    if (result.bits_lost_to_startup == 0 &&
        result.packet.payload[0] == packet.payload[0]) {
      minimum = std::min(minimum, pre);
    }
  }
  // Exactly the receiver's startup requirement.
  EXPECT_EQ(minimum, testbed::Receiver::kStartupEdges);
}

}  // namespace
}  // namespace mgt
