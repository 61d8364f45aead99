// Fig 8: the same optical-test-bed channel pushed to 4.0 Gbps.
//
// Paper: 47.2 ps p-p crossover jitter, 0.81 UI opening, no visible
// attenuation; this rate is at the upper limit of the PECL parts (the
// per-lane FPGA I/O rate leaves the 400 Mbps design margin but stays
// within the 800 Mbps capability).
#include "bench_eye_common.hpp"
#include "digital/dlc.hpp"

using namespace mgt;

namespace {

void bm_eye_acquisition_4g0(benchmark::State& state) {
  core::TestSystem sys(core::presets::optical_testbed(GbitsPerSec{4.0}), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  for (auto _ : state) {
    auto eye = sys.measure_eye(2000);
    benchmark::DoNotOptimize(eye);
  }
}
BENCHMARK(bm_eye_acquisition_4g0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Fig 8 - 4.0 Gbps eye, optical test bed TX (above target rate)");
  const auto config = core::presets::optical_testbed(GbitsPerSec{4.0});
  bench::run_eye_reproduction(table, config,
                              bench::EyeSpec{.paper_tj_pp_ps = 47.2,
                                             .paper_opening_ui = 0.81},
                              /*seed=*/42);
  // Document the margin situation the paper mentions.
  dig::Dlc dlc;
  dlc.regs().write(dig::reg::kLaneCount, 8);
  table.add_comparison(
      "per-lane I/O rate", "500 Mbps (above 400 Mbps margin)",
      fmt_unit(dlc.check_lane_rate(GbitsPerSec{4.0}).mbps(), "Mbps", 0),
      dlc.within_margin(GbitsPerSec{4.0}) ? "DEVIATES"
                                          : "OK (margin consumed)");
  return bench::finish(table, argc, argv);
}
