// Miniature wafer-probe tester demo (Section 4 of the paper).
//
// The self-contained tester on the probe card: 5 Gbps stimulus through the
// 2x8:1 + 2:1 PECL mux tree, capture by the picosecond sampling circuit,
// strobe centering, bathtub scan, BIST production screen on good and
// defective dies, a shmoo plot, and a parallel-array wafer probe.
#include <cstdio>

#include "minitester/array.hpp"
#include "minitester/minitester.hpp"
#include "minitester/shmoo.hpp"

int main() {
  using namespace mgt;
  using namespace mgt::minitester;

  std::printf("== Miniature WLP tester: 5 Gbps on the probe card ==\n\n");

  MiniTester tester(MiniTester::Config{}, /*seed=*/2005);
  tester.program_prbs(7, 0xACE1);
  tester.start();

  // --- Strobe centering -----------------------------------------------------
  const auto code = tester.center_strobe();
  std::printf("Strobe centered at delay code %zu (%zu x 10 ps into the "
              "200 ps UI)\n",
              code, code);
  const auto ber = tester.run_loopback(4096);
  std::printf("Loopback through the compliant leads: %zu errors in %zu bits "
              "(BER %.1e)\n\n",
              ber.errors, ber.bits_compared, ber.ber());

  // --- Bathtub ---------------------------------------------------------------
  std::printf("Bathtub scan (strobe swept across the UI in 10 ps codes):\n");
  const auto scan = tester.bathtub(1024, 1);
  for (const auto& p : scan) {
    const int bars = p.ber <= 0.0 ? 0 : static_cast<int>(p.ber * 40.0) + 1;
    std::printf("  %3.0f ps |%-12s| BER %.3f\n", p.strobe_offset.ps(),
                std::string(static_cast<std::size_t>(bars), '#').c_str(),
                p.ber);
  }
  std::printf("\n");

  // --- Eye through the DUT -----------------------------------------------
  const auto eye = tester.measure_loopback_eye(12000);
  std::printf("Loopback eye at 5 Gbps: %.1f ps p-p jitter, %.3f UI opening\n"
              "(bare TX eye in the paper's Fig 19: 0.75 UI; the DUT's leads "
              "cost a little more)\n\n",
              eye.jitter.peak_to_peak.ps(), eye.eye_opening.ui());

  // --- BIST production screen ----------------------------------------------
  std::printf("BIST screen (MISR signature compare):\n");
  struct Die {
    const char* label;
    Defect defect;
  };
  for (const Die& die : {Die{"good die", Defect::None},
                         Die{"stuck-low lead", Defect::StuckLow},
                         Die{"cracked (slow) lead", Defect::SlowLead},
                         Die{"weak driver", Defect::WeakDrive}}) {
    MiniTester::Config config;
    config.dut.defect = die.defect;
    MiniTester site(config, 77);
    site.program_prbs(7, 0xBEEF);
    site.start();
    const auto bist = site.run_bist(512);
    std::printf("  %-20s signature %04X vs golden %04X -> %s\n", die.label,
                bist.actual, bist.expected, bist.pass() ? "PASS" : "FAIL");
  }
  std::printf("\n");

  // --- Shmoo: strobe position vs swing --------------------------------------
  std::printf("Shmoo: strobe code (x) vs programmed swing (y), '.'=pass:\n");
  std::vector<double> xs;
  for (double c = 0.0; c <= 20.0; c += 2.0) {
    xs.push_back(c);
  }
  const auto shmoo = run_shmoo(
      "strobe code", xs, "swing mV", {800.0, 600.0, 400.0, 200.0},
      [](double strobe_code, double swing) {
        MiniTester::Config config;
        config.channel.buffer.levels =
            sig::PeclLevels{}.with_swing(Millivolts{swing});
        MiniTester site(config, 13);
        site.program_prbs(7, 0xACE1);
        site.start();
        site.set_strobe_code(static_cast<std::size_t>(strobe_code));
        return site.run_loopback(512).ber();
      });
  std::printf("%s  pass fraction: %.0f %%\n\n",
              shmoo.ascii_art(1e-6).c_str(),
              100.0 * shmoo.pass_fraction(1e-6));

  // --- Parallel wafer probing (Fig 13) ---------------------------------------
  TesterArray::Config array_config;
  array_config.testers = 16;
  array_config.defect_rate = 0.06;
  array_config.bist_bits = 256;
  TesterArray array(array_config, 2005);
  const auto wafer = array.probe_wafer(128);
  const double serial_time = TesterArray::wafer_time_s(
      128, 1, TesterArray::kTouchdownOverheadS, TesterArray::kPerDieTestS);
  std::printf("Parallel probe of a 128-die wafer with a 16-site array:\n");
  std::printf("  %zu touchdowns, %.0f s total (vs %.0f s single-site: "
              "x%.1f throughput)\n",
              wafer.touchdowns, wafer.total_time_s, serial_time,
              serial_time / wafer.total_time_s);
  std::printf("  %zu fails, %zu overkills, %zu escapes, %.0f dies/hour\n",
              wafer.fails, wafer.overkills, wafer.escapes,
              wafer.dies_per_hour());

  return 0;
}
