// Cross-module integration tests: full control-plane round trips, the two
// applications sharing one architecture, and determinism guarantees.
#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/minitester.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"

namespace mgt {
namespace {

TEST(Integration, SameSeedSameMeasurement) {
  // Everything stochastic is seeded: identical configurations must yield
  // bit-identical measurements (the repo's reproducibility contract).
  auto run = [] {
    core::TestSystem sys(core::presets::optical_testbed(), 12345);
    sys.program_prbs(7, 0xACE1);
    sys.start();
    return sys.measure_eye(6000);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.jitter.peak_to_peak.ps(), b.jitter.peak_to_peak.ps());
  EXPECT_DOUBLE_EQ(a.jitter.rms.ps(), b.jitter.rms.ps());
  EXPECT_DOUBLE_EQ(a.eye_opening.ui(), b.eye_opening.ui());
}

TEST(Integration, DifferentSeedsSimilarStatistics) {
  double pp[2];
  int i = 0;
  for (std::uint64_t seed : {111ull, 999ull}) {
    core::TestSystem sys(core::presets::optical_testbed(), seed);
    sys.program_prbs(7, 0xACE1);
    sys.start();
    pp[i++] = sys.measure_eye(12000).jitter.peak_to_peak.ps();
  }
  EXPECT_NE(pp[0], pp[1]);          // different parts, different numbers
  EXPECT_NEAR(pp[0], pp[1], 12.0);  // same population
}

TEST(Integration, UsbProgrammingMatchesDirectRegisterAccess) {
  // The full control path (USB packets -> device -> register file) must
  // be equivalent to direct register pokes.
  core::TestSystem via_usb(core::presets::optical_testbed(), 77);
  via_usb.program_prbs(23, 0x5EED);
  via_usb.start();

  core::TestSystem direct(core::presets::optical_testbed(), 77);
  direct.dlc().regs().write(dig::reg::kPrbsOrder, 23);
  direct.dlc().regs().write(dig::reg::kSeedLo, 0x5EED);
  direct.dlc().regs().write(dig::reg::kSeedHi, 0);
  direct.dlc().regs().write(dig::reg::kCtrl, dig::reg::kCtrlStart);

  EXPECT_EQ(via_usb.generate(1024).bits, direct.generate(1024).bits);
}

TEST(Integration, TestbedAndMinitesterShareTheArchitecture) {
  // One DLC design drives both applications; both must come up, run, and
  // produce open eyes at their respective target rates.
  core::TestSystem testbed_chan(core::presets::optical_testbed(), 5);
  testbed_chan.program_prbs(7, 1);
  testbed_chan.start();
  const auto testbed_eye = testbed_chan.measure_eye(8000);

  minitester::MiniTester mini(minitester::MiniTester::Config{}, 5);
  mini.program_prbs(7, 1);
  mini.start();
  const auto mini_eye = mini.measure_loopback_eye(8000);

  EXPECT_GT(testbed_eye.eye_opening.ui(), 0.8);   // 2.5 Gbps channel
  EXPECT_GT(mini_eye.eye_opening.ui(), 0.6);      // 5.0 Gbps through the DUT
  // The faster channel pays proportionally more of its UI to jitter.
  EXPECT_GT(testbed_eye.eye_opening.ui(), mini_eye.eye_opening.ui());
}

TEST(Integration, TestbedPacketsSurviveFabricContention) {
  testbed::OpticalTestbed tb(testbed::OpticalTestbed::Config{}, 31);
  const auto stats = tb.run(0.8, 100);  // heavy load
  EXPECT_EQ(stats.fabric.delivered, stats.fabric.injected);
  EXPECT_EQ(stats.payload_bit_errors, 0u);
  EXPECT_GT(stats.mean_deflections, 0.0);  // contention really happened
}

TEST(Integration, MinitesterStrobeCalibrationTransfersAcrossPatterns) {
  // Center the strobe on PRBS7, then run a different pattern without
  // recalibrating: the eye center must still be valid.
  minitester::MiniTester mini(minitester::MiniTester::Config{}, 13);
  mini.program_prbs(7, 0xACE1);
  mini.start();
  mini.center_strobe(640);
  mini.program_prbs(15, 0x0F0F);
  mini.start();
  EXPECT_EQ(mini.run_loopback(2048).errors, 0u);
}

}  // namespace
}  // namespace mgt
