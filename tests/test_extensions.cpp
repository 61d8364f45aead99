// Tests for the extension modules: dual-Dirac BER extrapolation, traffic
// patterns, and transmitter deskew calibration.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/berextrap.hpp"
#include "minitester/minitester.hpp"
#include "testbed/calibration.hpp"
#include "testbed/receiver.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vortex/traffic.hpp"

namespace mgt {
namespace {

// ------------------------------------------------------------- berextrap --

TEST(BerExtrap, InverseNormalCdfAccuracy) {
  EXPECT_NEAR(ana::inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(ana::inverse_normal_cdf(0.8413447460685429), 1.0, 1e-6);
  EXPECT_NEAR(ana::inverse_normal_cdf(0.9986501019683699), 3.0, 1e-6);
  EXPECT_NEAR(ana::inverse_normal_cdf(1.0 - 0.9986501019683699), -3.0, 1e-6);
  EXPECT_THROW(ana::inverse_normal_cdf(0.0), Error);
  EXPECT_THROW(ana::inverse_normal_cdf(1.0), Error);
}

TEST(BerExtrap, QOfBer) {
  EXPECT_NEAR(ana::q_of_ber(0.5), 0.0, 1e-9);
  // BER 1e-12 corresponds to Q ~= 7.03.
  EXPECT_NEAR(ana::q_of_ber(1e-12), 7.034, 0.01);
}

TEST(BerExtrap, FitRecoversSyntheticDualDirac) {
  // Construct an ideal bathtub: edges at mu_l=20 ps and mu_r=180 ps with
  // sigma = 4 ps on both sides.
  const double sigma = 4.0;
  const double mu_l = 20.0;
  const double mu_r = 180.0;
  std::vector<ana::BathtubPoint> scan;
  for (double x = 0.0; x <= 200.0; x += 5.0) {
    // BER on each side is the Gaussian tail beyond the strobe.
    const double ql = (x - mu_l) / sigma;
    const double qr = (mu_r - x) / sigma;
    const double ber_l = 0.5 * std::erfc(ql / std::numbers::sqrt2);
    const double ber_r = 0.5 * std::erfc(qr / std::numbers::sqrt2);
    ana::BathtubPoint p;
    p.strobe_offset = Picoseconds{x};
    p.ber = std::min(0.5, ber_l + ber_r);
    scan.push_back(p);
  }
  const auto fit = ana::fit_bathtub(scan, 1e-9);
  ASSERT_TRUE(fit.valid());
  EXPECT_NEAR(fit.left_sigma.ps(), sigma, 0.5);
  EXPECT_NEAR(fit.right_sigma.ps(), sigma, 0.5);
  EXPECT_NEAR(fit.left_mu.ps(), mu_l, 2.0);
  EXPECT_NEAR(fit.right_mu.ps(), mu_r, 2.0);
  // Eye at BER 1e-12: (mu_r - Q*sigma) - (mu_l + Q*sigma).
  const double expected = (mu_r - mu_l) - 2.0 * 7.034 * sigma;
  EXPECT_NEAR(fit.eye_at_ber(1e-12).ps(), expected, 3.0);
}

TEST(BerExtrap, FitOnRealMinitesterBathtub) {
  minitester::MiniTester tester(minitester::MiniTester::Config{}, 5);
  tester.program_prbs(7, 0xACE1);
  tester.start();
  const auto scan = tester.bathtub(4096, 1);
  const auto fit = ana::fit_bathtub(scan, 1e-5);
  ASSERT_TRUE(fit.valid());
  // Extrapolated deep-BER eye is narrower than the raw floor but positive.
  const double floor_ps = ana::bathtub_opening(scan, 1e-6).ps();
  const double deep = fit.eye_at_ber(1e-12).ps();
  EXPECT_GT(deep, 0.0);
  EXPECT_LT(deep, floor_ps + 10.0);
}

TEST(BerExtrap, DegenerateScanIsInvalid) {
  EXPECT_FALSE(ana::fit_bathtub({}).valid());
  std::vector<ana::BathtubPoint> flat(10);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    flat[i].strobe_offset = Picoseconds{static_cast<double>(i) * 10.0};
    flat[i].ber = 0.0;
  }
  EXPECT_FALSE(ana::fit_bathtub(flat).valid());
}

// --------------------------------------------------------------- traffic --

TEST(Traffic, DestinationsAreValidAndPatternShaped) {
  Rng rng(1);
  for (std::size_t src = 0; src < 16; ++src) {
    EXPECT_EQ(vortex::traffic_destination(vortex::TrafficPattern::Neighbor,
                                          src, 16, rng),
              (src + 1) % 16);
    EXPECT_EQ(vortex::traffic_destination(vortex::TrafficPattern::Tornado,
                                          src, 16, rng),
              (src + 7) % 16);
    const auto uniform = vortex::traffic_destination(
        vortex::TrafficPattern::Uniform, src, 16, rng);
    EXPECT_LT(uniform, 16u);
  }
  // Bit reverse of 0b0001 in 4 bits is 0b1000.
  EXPECT_EQ(vortex::traffic_destination(vortex::TrafficPattern::BitReverse,
                                        1, 16, rng),
            8u);
}

TEST(Traffic, HotspotSkewsDestinations) {
  Rng rng(2);
  std::size_t hits = 0;
  for (int i = 0; i < 1000; ++i) {
    if (vortex::traffic_destination(vortex::TrafficPattern::Hotspot, 3, 16,
                                    rng, 0.5, 0) == 0) {
      ++hits;
    }
  }
  // 50 % direct + 1/16 of the uniform remainder ~ 53 %.
  EXPECT_GT(hits, 400u);
  EXPECT_LT(hits, 650u);
}

TEST(Traffic, UniformIsFairHotspotIsNot) {
  const auto geometry = vortex::Geometry::for_heights(16, 4);
  const auto uniform = vortex::run_traffic(
      geometry, vortex::TrafficPattern::Uniform, 0.4, 500, 42);
  const auto hotspot = vortex::run_traffic(
      geometry, vortex::TrafficPattern::Hotspot, 0.4, 500, 42, 0.7);
  EXPECT_GT(uniform.fairness, 0.95);
  EXPECT_LT(hotspot.fairness, 0.6);
  // The hot output port saturates: delivered throughput drops and packets
  // spend laps waiting (virtual buffering).
  EXPECT_LT(hotspot.throughput_per_port, uniform.throughput_per_port);
  EXPECT_GT(hotspot.mean_latency_slots, uniform.mean_latency_slots);
}

TEST(Traffic, PermutationPatternsDeliverEverything) {
  const auto geometry = vortex::Geometry::for_heights(16, 4);
  for (auto pattern : {vortex::TrafficPattern::Neighbor,
                       vortex::TrafficPattern::BitReverse,
                       vortex::TrafficPattern::Tornado}) {
    const auto result = vortex::run_traffic(geometry, pattern, 0.5, 300, 7);
    // Permutations have no output contention: near-offered throughput and
    // high fairness.
    EXPECT_NEAR(result.throughput_per_port, 0.5, 0.05);
    EXPECT_GT(result.fairness, 0.95);
    EXPECT_GE(result.p99_latency_slots, result.mean_latency_slots);
  }
}

// ------------------------------------------------------------ calibration --

TEST(Calibration, ReducesChannelSkewWithinSpec) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  testbed::OpticalTransmitter tx(config, 99);
  // Start badly misaligned: stagger the channels by 0..4 ns.
  for (std::size_t ch = 0; ch < testbed::kHighSpeedChannels; ++ch) {
    tx.set_channel_delay_code(ch, ch * 100);
  }
  const auto before = testbed::measure_channel_skew(tx);
  double worst_before = 0.0;
  for (const Picoseconds s : before) {
    worst_before = std::max(worst_before, std::abs(s.ps()));
  }
  EXPECT_GT(worst_before, 900.0);  // ~1 ns of deliberate skew

  const auto report = testbed::calibrate_transmitter(tx);
  EXPECT_TRUE(report.within(Picoseconds{25.0}))
      << "worst residual " << report.worst_residual().ps() << " ps";
  EXPECT_GT(report.worst_residual().ps(), 0.0);  // real parts, real residue
}

TEST(Calibration, CalibratedBusReceivesCleanly) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  testbed::OpticalTransmitter tx(config, 55);
  for (std::size_t ch = 0; ch < testbed::kHighSpeedChannels; ++ch) {
    tx.set_channel_delay_code(ch, (ch * 37) % 80);
  }
  testbed::calibrate_transmitter(tx);

  testbed::Receiver rx(testbed::Receiver::Config{});
  Rng rng(5);
  testbed::TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector::random(32, rng);
  }
  packet.header = 0x9;
  const auto out = tx.transmit(packet, Picoseconds{0.0});
  const auto result = rx.receive(out, Picoseconds{0.0});
  ASSERT_TRUE(result.captured);
  for (std::size_t ch = 0; ch < testbed::kDataChannels; ++ch) {
    EXPECT_EQ(result.packet.payload[ch], packet.payload[ch]);
  }
}

}  // namespace
}  // namespace mgt
