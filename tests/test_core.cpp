// Tests for src/core: the TestSystem facade and the paper-calibrated
// presets. These are the tests that pin the reproduction to the paper's
// measured numbers (Figs 6-11 for the test bed channel).
#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "digital/registers.hpp"
#include "util/error.hpp"

namespace mgt::core {
namespace {

using mgt::Error;

TEST(TestSystem, BootsThroughJtagAndFlash) {
  TestSystem sys(presets::optical_testbed(), 1);
  EXPECT_TRUE(sys.dlc().configured());
  EXPECT_EQ(sys.dlc().design_name(), "optical-testbed-tx");
  // The USB control path is live.
  EXPECT_EQ(sys.usb().read_register(dig::reg::kId), dig::reg::kIdValue);
}

TEST(TestSystem, GenerateRequiresStart) {
  TestSystem sys(presets::optical_testbed(), 2);
  sys.program_prbs(7, 1);
  // A configured but idle DLC refuses, and it is the running check that
  // fires, not a later one.
  try {
    (void)sys.generate(1024);
    FAIL() << "generate() ran before start()";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("start()"), std::string::npos)
        << e.what();
  }
  sys.start();
  EXPECT_NO_THROW(sys.generate(1024));
  sys.stop();
  EXPECT_THROW(sys.generate(1024), Error);
}

TEST(Dlc, GenerateRequiresRunning) {
  // The gate is the DLC's own status register: driving its control
  // register directly, past TestSystem::start/stop, opens and closes it.
  TestSystem sys(presets::optical_testbed(), 2);
  sys.program_prbs(7, 1);
  auto& regs = sys.dlc().regs();
  EXPECT_NE(sys.dlc().status(), dig::reg::kStatusRunning);
  EXPECT_THROW(sys.generate(1024), Error);
  regs.write(dig::reg::kCtrl, dig::reg::kCtrlStart);
  ASSERT_EQ(sys.dlc().status(), dig::reg::kStatusRunning);
  EXPECT_NO_THROW(sys.generate(1024));
  regs.write(dig::reg::kCtrl, dig::reg::kCtrlStop);
  EXPECT_NE(sys.dlc().status(), dig::reg::kStatusRunning);
  EXPECT_THROW(sys.generate(1024), Error);
}

TEST(TestSystem, GeneratedBitsAreTheDlcSerialStream) {
  // The stimulus is the DLC's serial stream as is: the lane split is
  // modelled by the serializer's per-bit timing, not by a round trip.
  for (const auto& config : {presets::optical_testbed(), presets::minitester()}) {
    TestSystem sys(config, 7);
    sys.program_prbs(7, 0x5A);
    sys.start();
    EXPECT_EQ(sys.generate(2048).bits, sys.dlc().expected_serial(2048));
    sys.stop();

    const auto pattern = BitVector::from_string("1100101001110");
    sys.program_pattern(pattern);
    sys.start();
    const auto bits = sys.generate(1024).bits;
    EXPECT_EQ(bits, sys.dlc().expected_serial(1024));
    for (std::size_t i = 0; i < bits.size(); ++i) {
      ASSERT_EQ(bits.get(i), pattern.get(i % pattern.size())) << i;
    }
  }
}

TEST(TestSystem, StimulusCarriesPrbsBits) {
  TestSystem sys(presets::optical_testbed(), 3);
  sys.program_prbs(15, 0xACE1);
  sys.start();
  const auto stim = sys.generate(2048);
  EXPECT_EQ(stim.bits, dig::Lfsr::prbs15(0xACE1).generate(2048));
  EXPECT_TRUE(stim.edges.well_formed());
  EXPECT_DOUBLE_EQ(stim.ui.ps(), 400.0);
  // Edges, sampled on the boundary grid, reproduce the data.
  EXPECT_EQ(stim.edges.to_bits(2048, stim.ui,
                               Picoseconds{stim.t0.ps() -
                                           stim.chain.group_delay().ps()}),
            stim.bits);
}

TEST(TestSystem, PatternModeRoundTrip) {
  TestSystem sys(presets::optical_testbed(), 4);
  const auto pattern = BitVector::from_string("11001010");
  sys.program_pattern(pattern);
  sys.start();
  const auto stim = sys.generate(64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(stim.bits.get(i), pattern.get(i % 8));
  }
}

TEST(TestSystem, BoundaryGrid) {
  TestSystem sys(presets::optical_testbed(), 5);
  sys.program_prbs(7, 1);
  sys.start();
  const auto stim = sys.generate(64);
  const auto grid = stim.boundary_grid(8);
  ASSERT_EQ(grid.size(), 9u);
  EXPECT_DOUBLE_EQ(grid[1].ps() - grid[0].ps(), 400.0);
  EXPECT_DOUBLE_EQ(grid[0].ps(), stim.t0.ps());
}

// ----- Paper-number pinning (test bed channel) ---------------------------

TEST(PaperNumbers, Fig7EyeAt2G5) {
  TestSystem sys(presets::optical_testbed(GbitsPerSec{2.5}), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto eye = sys.measure_eye(20000);
  // Paper: 46.7 ps p-p, 0.88 UI usable opening.
  EXPECT_NEAR(eye.jitter.peak_to_peak.ps(), 46.7, 6.0);
  EXPECT_NEAR(eye.eye_opening.ui(), 0.88, 0.02);
  EXPECT_GT(eye.eye_height.mv(), 300.0);  // clearly open
}

TEST(PaperNumbers, Fig8EyeAt4G0) {
  TestSystem sys(presets::optical_testbed(GbitsPerSec{4.0}), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto eye = sys.measure_eye(20000);
  // Paper: 47.2 ps p-p, 0.81 UI, "no visible signal attenuation".
  EXPECT_NEAR(eye.jitter.peak_to_peak.ps(), 47.2, 6.0);
  EXPECT_NEAR(eye.eye_opening.ui(), 0.81, 0.025);
}

TEST(PaperNumbers, JitterIsRateIndependent) {
  // The shape claim behind Figs 7/8: TJ p-p barely moves with data rate,
  // so the eye opening in UI shrinks as the UI does.
  double tj[2];
  double ui[2];
  int i = 0;
  for (double rate : {2.5, 4.0}) {
    TestSystem sys(presets::optical_testbed(GbitsPerSec{rate}), 7);
    sys.program_prbs(7, 0xACE1);
    sys.start();
    const auto eye = sys.measure_eye(12000);
    tj[i] = eye.jitter.peak_to_peak.ps();
    ui[i] = eye.eye_opening.ui();
    ++i;
  }
  EXPECT_NEAR(tj[0], tj[1], 5.0);  // same jitter budget
  EXPECT_GT(ui[0], ui[1]);         // smaller opening at the higher rate
}

TEST(PaperNumbers, Fig6RiseFallInSiGeBand) {
  TestSystem sys(presets::optical_testbed(), 42);
  sys.program_prbs(7, 1);
  sys.start();
  const auto rf = sys.measure_risefall(4096);
  // Paper: 70-75 ps 20-80 % on both edges.
  EXPECT_GE(rf.rise_mean.ps(), 68.0);
  EXPECT_LE(rf.rise_mean.ps(), 77.0);
  EXPECT_GE(rf.fall_mean.ps(), 68.0);
  EXPECT_LE(rf.fall_mean.ps(), 77.0);
  EXPECT_GT(rf.rise_count, 500u);
}

TEST(PaperNumbers, Fig9SingleEdgeJitter) {
  TestSystem sys(presets::optical_testbed(), 42);
  sys.program_prbs(7, 1);
  sys.start();
  const auto jitter = sys.measure_single_edge_jitter(10000);
  // Paper: 24 ps p-p, ~3.2 ps rms on an isolated edge.
  EXPECT_NEAR(jitter.peak_to_peak.ps(), 24.0, 5.0);
  EXPECT_NEAR(jitter.rms.ps(), 3.2, 0.6);
  // p-p/rms ratio ~7.5 marks a Gaussian-dominated edge.
  EXPECT_NEAR(jitter.peak_to_peak.ps() / jitter.rms.ps(), 7.5, 1.5);
}

TEST(PaperNumbers, Fig10VohSteps) {
  TestSystem sys(presets::optical_testbed(GbitsPerSec{1.25}), 42);
  sys.program_pattern(BitVector::from_string("11110000"));
  sys.start();
  const double voh_max = sys.buffer().levels().voh.mv();
  double previous = 1e9;
  for (int step = 0; step < 4; ++step) {
    sys.buffer().set_voh(Millivolts{voh_max - 100.0 * step});
    const auto amp = sys.measure_amplitude(2048);
    // Measured high level tracks the programmed 100 mV staircase.
    EXPECT_NEAR(amp.settled_high.mv(),
                sys.buffer().levels().voh.mv(), 25.0);
    EXPECT_LT(amp.settled_high.mv(), previous);
    previous = amp.settled_high.mv();
  }
}

TEST(PaperNumbers, Fig11SwingSteps) {
  TestSystem sys(presets::optical_testbed(GbitsPerSec{2.5}), 42);
  sys.program_pattern(BitVector::from_string("11110000"));
  sys.start();
  const double mid = sys.buffer().levels().midpoint().mv();
  for (double swing : {800.0, 600.0, 400.0, 200.0}) {
    sys.buffer().set_swing(Millivolts{swing});
    const auto amp = sys.measure_amplitude(2048);
    const double measured_swing =
        amp.settled_high.mv() - amp.settled_low.mv();
    EXPECT_NEAR(measured_swing, swing * 0.97 /*hookup loss*/, 40.0);
    EXPECT_NEAR((amp.settled_high.mv() + amp.settled_low.mv()) / 2.0, mid,
                25.0);
  }
}

// ----- Paper-number pinning (mini-tester channel, Figs 16/17/19) ---------

struct MiniEyeCase {
  double rate_gbps;
  double paper_opening_ui;
  double tolerance;
};

class MiniEye : public ::testing::TestWithParam<MiniEyeCase> {};

TEST_P(MiniEye, OpeningMatchesPaper) {
  const auto& param = GetParam();
  TestSystem sys(presets::minitester(GbitsPerSec{param.rate_gbps}), 99);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto eye = sys.measure_eye(20000);
  EXPECT_NEAR(eye.eye_opening.ui(), param.paper_opening_ui, param.tolerance)
      << param.rate_gbps << " Gbps";
  // "low jitter (~50 ps)" across all rates (Section 4).
  EXPECT_NEAR(eye.jitter.peak_to_peak.ps(), 50.0, 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Figures, MiniEye,
    ::testing::Values(MiniEyeCase{1.0, 0.95, 0.02},    // Fig 16
                      MiniEyeCase{2.5, 0.87, 0.025},   // Fig 17
                      MiniEyeCase{5.0, 0.75, 0.03}));  // Fig 19

TEST(PaperNumbersMini, EyeShrinksMonotonicallyWithRate) {
  double previous = 1.0;
  for (double rate : {1.0, 2.5, 5.0}) {
    TestSystem sys(presets::minitester(GbitsPerSec{rate}), 7);
    sys.program_prbs(7, 0xACE1);
    sys.start();
    const double opening = sys.measure_eye(12000).eye_opening.ui();
    EXPECT_LT(opening, previous) << rate;
    previous = opening;
  }
}

TEST(PaperNumbersMini, Fig18RiseTimeBand) {
  TestSystem sys(presets::minitester(GbitsPerSec{1.0}), 99);
  sys.program_pattern(BitVector::from_string("1111111100000000"));
  sys.start();
  const auto rf = sys.measure_risefall(4096);
  // Paper: ~120 ps 20-80 % for the mini-tester's I/O buffers.
  EXPECT_NEAR(rf.rise_mean.ps(), 120.0, 10.0);
  EXPECT_NEAR(rf.fall_mean.ps(), 120.0, 10.0);
}

// ----- presets ------------------------------------------------------------

TEST(Presets, RateLimitsMatchHardware) {
  EXPECT_NO_THROW(presets::optical_testbed(GbitsPerSec{4.0}));
  EXPECT_THROW(presets::optical_testbed(GbitsPerSec{5.0}), Error);
  EXPECT_NO_THROW(presets::minitester(GbitsPerSec{5.0}));
  EXPECT_THROW(presets::minitester(GbitsPerSec{6.0}), Error);
}

TEST(Presets, ClockStaysInInstrumentRange) {
  for (double rate : {1.0, 2.5, 4.0}) {
    const auto config = presets::optical_testbed(GbitsPerSec{rate});
    EXPECT_GE(config.clock.frequency.ghz(), 0.5);
    EXPECT_LE(config.clock.frequency.ghz(), 2.5);
  }
  for (double rate : {1.0, 2.5, 5.0}) {
    const auto config = presets::minitester(GbitsPerSec{rate});
    EXPECT_GE(config.clock.frequency.ghz(), 0.5);
    EXPECT_LE(config.clock.frequency.ghz(), 2.5);
  }
}

TEST(Presets, MinitesterUsesTwoStageTree) {
  const auto config = presets::minitester();
  EXPECT_EQ(config.serializer.stages.size(), 2u);
  EXPECT_EQ(config.serializer.stages[0].fan_in, 2u);
  EXPECT_EQ(config.serializer.stages[1].fan_in, 8u);
}

TEST(TestSystem, OddBitCountRejected) {
  TestSystem sys(presets::optical_testbed(), 6);
  sys.program_prbs(7, 1);
  sys.start();
  EXPECT_THROW(sys.generate(1001), Error);  // not a multiple of 8 lanes
}

}  // namespace
}  // namespace mgt::core
