// Tests for src/minitester: MISR/BIST, DUT model, loopback/bathtub/eye,
// shmoo plots, and the parallel tester array.
#include <gtest/gtest.h>

#include <cmath>

#include "minitester/array.hpp"
#include "minitester/dut.hpp"
#include "minitester/minitester.hpp"
#include "minitester/shmoo.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mgt::minitester {
namespace {

using mgt::BitVector;
using mgt::Error;
using mgt::Rng;

// ------------------------------------------------------------------ misr --

TEST(Misr, DeterministicAndSeedSensitive) {
  const auto bits = BitVector::from_string("1101001010111001");
  EXPECT_EQ(misr_signature(bits), misr_signature(bits));
  EXPECT_NE(misr_signature(bits, 0xFFFF), misr_signature(bits, 0x1234));
}

TEST(Misr, SensitiveToSingleBitFlip) {
  Rng rng(1);
  const auto bits = BitVector::random(512, rng);
  const auto golden = misr_signature(bits);
  for (std::size_t i = 0; i < bits.size(); i += 37) {
    auto flipped = bits;
    flipped.set(i, !flipped.get(i));
    EXPECT_NE(misr_signature(flipped), golden) << "flip at " << i;
  }
}

TEST(Misr, SensitiveToBitOrder) {
  const auto a = BitVector::from_string("1100");
  const auto b = BitVector::from_string("0011");
  EXPECT_NE(misr_signature(a), misr_signature(b));
}

// ------------------------------------------------------------------- dut --

TEST(WlpDut, LoopbackDelayIsSumOfPath) {
  const WlpDut dut(WlpDut::Config{});
  const double lead = sig::Channel::compliant_lead().config().delay.ps();
  EXPECT_DOUBLE_EQ(dut.loopback_delay().ps(),
                   sig::Channel::interposer_trace().config().delay.ps() +
                       lead + lead + WlpDut::kInternalDelay.ps());
}

TEST(WlpDut, RespondShiftsEdges) {
  const WlpDut dut(WlpDut::Config{});
  const auto in = sig::EdgeStream::from_bits(BitVector::from_string("01"),
                                             Picoseconds{200.0});
  const auto out = dut.respond(in);
  EXPECT_DOUBLE_EQ(out.transitions()[0].time.ps(),
                   200.0 + dut.loopback_delay().ps());
}

TEST(WlpDut, StuckFaultsPinTheOutput) {
  WlpDut::Config config;
  config.defect = Defect::StuckLow;
  const WlpDut low(config);
  const auto in = sig::EdgeStream::clock(Picoseconds{200.0}, 8);
  EXPECT_TRUE(low.respond(in).empty());
  EXPECT_FALSE(low.respond(in).initial_level());

  config.defect = Defect::StuckHigh;
  const WlpDut high(config);
  EXPECT_TRUE(high.respond(in).empty());
  EXPECT_TRUE(high.respond(in).initial_level());
}

TEST(WlpDut, DefectsDegradeTheChain) {
  sig::FilterChain healthy_chain;
  WlpDut(WlpDut::Config{}).contribute(healthy_chain, Millivolts{2000.0});

  WlpDut::Config slow;
  slow.defect = Defect::SlowLead;
  sig::FilterChain slow_chain;
  WlpDut(slow).contribute(slow_chain, Millivolts{2000.0});
  EXPECT_GT(slow_chain.pole_count(), healthy_chain.pole_count());

  WlpDut::Config weak;
  weak.defect = Defect::WeakDrive;
  sig::FilterChain weak_chain;
  WlpDut(weak).contribute(weak_chain, Millivolts{2000.0});
  EXPECT_LT(weak_chain.gain(), 0.5 * healthy_chain.gain());
}

TEST(WlpDut, BistSignatureMatchesMisr) {
  Rng rng(2);
  const auto bits = BitVector::random(256, rng);
  EXPECT_EQ(WlpDut(WlpDut::Config{}).bist_signature(bits),
            misr_signature(bits));
  WlpDut::Config stuck;
  stuck.defect = Defect::StuckLow;
  EXPECT_EQ(WlpDut(stuck).bist_signature(bits),
            misr_signature(BitVector(256, false)));
}

// ------------------------------------------------------------- minitester --

class LoopbackAtRate : public ::testing::TestWithParam<double> {};

TEST_P(LoopbackAtRate, CenterStrobeIsErrorFree) {
  MiniTester::Config config;
  config.channel = core::presets::minitester(GbitsPerSec{GetParam()});
  MiniTester tester(config, 3);
  tester.program_prbs(7, 0xACE1);
  tester.start();
  const auto ber = tester.run_loopback(2048);
  EXPECT_EQ(ber.errors, 0u) << "rate " << GetParam();
  EXPECT_GT(ber.bits_compared, 1500u);
}

INSTANTIATE_TEST_SUITE_P(Rates, LoopbackAtRate,
                         ::testing::Values(1.0, 2.5, 5.0));

TEST(MiniTester, BathtubHasFloorAndWalls) {
  MiniTester tester(MiniTester::Config{}, 4);
  tester.program_prbs(7, 0xACE1);
  tester.start();
  const auto scan = tester.bathtub(768, 1);
  ASSERT_GT(scan.size(), 10u);

  // The floor: a contiguous error-free region of meaningful width.
  const auto opening = ana::bathtub_opening(scan, 1e-6);
  EXPECT_GT(opening.ps(), 80.0);   // > 0.4 UI at 5 Gbps
  EXPECT_LT(opening.ps(), 200.0);  // cannot exceed the UI

  // The walls: some strobe position shows real errors.
  double worst = 0.0;
  for (const auto& p : scan) {
    worst = std::max(worst, p.ber);
  }
  EXPECT_GT(worst, 0.05);
}

TEST(MiniTester, CenterStrobeLandsMidEye) {
  MiniTester tester(MiniTester::Config{}, 5);
  tester.program_prbs(7, 0xACE1);
  tester.start();
  const auto code = tester.center_strobe(640);
  // 5 Gbps UI = 200 ps = 20 codes; the center should be 6..14.
  EXPECT_GE(code, 4u);
  EXPECT_LE(code, 16u);
  EXPECT_EQ(tester.strobe_code(), code);
  EXPECT_EQ(tester.run_loopback(1024).errors, 0u);
}

TEST(MiniTester, CenterStrobeReturnsAScannedVernierCode) {
  // The scan strides two codes, so the centre is an even code. Recovering
  // it from the 0.67 ps offset by division truncated to 123 here.
  MiniTester::Config config;
  config.strobe_delay = core::presets::strobe_delay(pecl::TimingMode::kVernier);
  MiniTester tester(config, 2);
  tester.program_prbs(7, 1);
  tester.start();
  EXPECT_EQ(tester.center_strobe(160), 124u);
  EXPECT_EQ(tester.strobe_code(), 124u);
}

TEST(MiniTester, StrobeAtEyeEdgeFails) {
  MiniTester tester(MiniTester::Config{}, 6);
  tester.program_prbs(7, 0xACE1);
  tester.start();
  tester.center_strobe(640);
  const auto centered = tester.run_loopback(768);
  EXPECT_EQ(centered.errors, 0u);
  // Move the strobe ~half a UI off center: massive errors.
  tester.set_strobe_code(tester.strobe_code() + 10);
  const auto off = tester.run_loopback(768);
  EXPECT_GT(off.ber(), 0.02);
}

TEST(MiniTester, BistPassesOnGoodDie) {
  MiniTester tester(MiniTester::Config{}, 7);
  tester.program_prbs(7, 0xBEEF);
  tester.start();
  const auto result = tester.run_bist(512);
  EXPECT_TRUE(result.pass());
}

class BistDefects : public ::testing::TestWithParam<Defect> {};

TEST_P(BistDefects, BistCatchesDefect) {
  MiniTester::Config config;
  config.dut.defect = GetParam();
  MiniTester tester(config, 8);
  tester.program_prbs(7, 0xBEEF);
  tester.start();
  EXPECT_FALSE(tester.run_bist(512).pass());
}

INSTANTIATE_TEST_SUITE_P(Defects, BistDefects,
                         ::testing::Values(Defect::StuckLow,
                                           Defect::StuckHigh,
                                           Defect::SlowLead));

TEST(MiniTester, Fig19LoopbackEyeAt5G) {
  MiniTester tester(MiniTester::Config{}, 9);
  tester.program_prbs(7, 0xACE1);
  tester.start();
  const auto eye = tester.measure_loopback_eye(12000);
  // Through the DUT leads the eye is a touch smaller than the bare Fig 19
  // output (0.75 UI) but must remain clearly open.
  EXPECT_GT(eye.eye_opening.ui(), 0.6);
  EXPECT_LT(eye.eye_opening.ui(), 0.85);
}

TEST(MiniTester, StuckDutEyeThrows) {
  MiniTester::Config config;
  config.dut.defect = Defect::StuckLow;
  MiniTester tester(config, 10);
  tester.program_prbs(7, 1);
  tester.start();
  EXPECT_THROW(tester.measure_loopback_eye(512), Error);
}

// ----------------------------------------------------------------- shmoo --

TEST(Shmoo, GridAndPassFraction) {
  const auto shmoo = run_shmoo(
      "x", {0.0, 1.0, 2.0, 3.0}, "y", {0.0, 1.0},
      [](double x, double) { return x < 2.0 ? 0.0 : 0.5; });
  ASSERT_EQ(shmoo.ber.size(), 2u);
  ASSERT_EQ(shmoo.ber[0].size(), 4u);
  EXPECT_DOUBLE_EQ(shmoo.pass_fraction(1e-3), 0.5);
  const auto art = shmoo.ascii_art(1e-3);
  EXPECT_NE(art.find('.'), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Shmoo, EmptyAxesThrow) {
  EXPECT_THROW(run_shmoo("x", {}, "y", {1.0},
                         [](double, double) { return 0.0; }),
               Error);
}

TEST(Shmoo, StrobeVersusRateShowsShrinkingEye) {
  // A coarse real shmoo: strobe offset (x) against data rate (y); the
  // passing band must narrow as the rate rises (the paper's Fig 16 -> 19
  // progression).
  std::vector<double> codes;
  for (double c = 0; c <= 20; c += 4) {
    codes.push_back(c);
  }
  const auto shmoo = run_shmoo(
      "strobe code", codes, "rate Gbps", {1.0, 5.0},
      [](double code, double rate) {
        MiniTester::Config config;
        config.channel = core::presets::minitester(GbitsPerSec{rate});
        MiniTester tester(config, 11);
        tester.program_prbs(7, 0xACE1);
        tester.start();
        // Scale the code to the rate's UI so x spans one UI at every rate.
        const double ui_codes = 100.0 / rate / 1.0;  // UI in 10 ps codes
        const auto scaled = static_cast<std::size_t>(
            code / 20.0 * ui_codes);
        tester.set_strobe_code(scaled);
        return tester.run_loopback(512).ber();
      });
  std::size_t pass_low = 0;
  std::size_t pass_high = 0;
  for (std::size_t i = 0; i < shmoo.xs.size(); ++i) {
    pass_low += shmoo.ber[0][i] <= 1e-6 ? 1 : 0;
    pass_high += shmoo.ber[1][i] <= 1e-6 ? 1 : 0;
  }
  EXPECT_GE(pass_low, pass_high);  // 1 Gbps band at least as wide as 5 Gbps
  EXPECT_GT(pass_low, 3u);
}

// ----------------------------------------------------------------- array --

TEST(TesterArray, ThroughputModelScalesWithSites) {
  const double t1 = TesterArray::wafer_time_s(256, 1, 1.5, 0.8);
  const double t16 = TesterArray::wafer_time_s(256, 16, 1.5, 0.8);
  EXPECT_NEAR(t1 / t16, 16.0, 0.5);  // the paper's order-of-magnitude claim
  EXPECT_DOUBLE_EQ(t1, 256.0 * 2.3);
}

TEST(TesterArray, WaferProbeFindsDefects) {
  TesterArray::Config config;
  config.testers = 8;
  config.defect_rate = 0.25;
  config.bist_bits = 256;
  TesterArray array(config, 12);
  const auto result = array.probe_wafer(64);

  EXPECT_EQ(result.dies, 64u);
  EXPECT_EQ(result.touchdowns, 8u);
  // Roughly a quarter of dies fail and no good die is failed. WeakDrive
  // parts can escape the threshold-centered BIST (they are caught by the
  // amplitude screen instead), so a bounded escape count is expected.
  EXPECT_GT(result.fails, 5u);
  EXPECT_LT(result.fails, 30u);
  EXPECT_EQ(result.overkills, 0u);
  EXPECT_LE(result.escapes, 10u);
  EXPECT_GT(result.dies_per_hour(), 0.0);
}

TEST(TesterArray, CleanWaferAllPasses) {
  TesterArray::Config config;
  config.testers = 4;
  config.defect_rate = 0.0;
  config.bist_bits = 256;
  TesterArray array(config, 13);
  const auto result = array.probe_wafer(16);
  EXPECT_EQ(result.fails, 0u);
  EXPECT_EQ(result.overkills, 0u);
  EXPECT_EQ(result.escapes, 0u);
}

}  // namespace
}  // namespace mgt::minitester
