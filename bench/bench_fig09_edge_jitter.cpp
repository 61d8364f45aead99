// Fig 9: jitter of a single falling transition edge.
//
// Paper: 24 ps peak-to-peak and about 3.2 ps rms. Unlike the eye diagrams
// this excludes data-dependent effects, so it isolates the random jitter
// of the internal clock and logic chain.
#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "signal/jitter.hpp"

using namespace mgt;

namespace {

void run_reproduction(ReportTable& table) {
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 1);
  sys.start();
  const auto falling = sys.measure_single_edge_jitter(10000, false);

  table.add_comparison("single-edge jitter p-p", "24 ps",
                       fmt_unit(falling.peak_to_peak.ps(), "ps", 1),
                       bench::verdict(falling.peak_to_peak.ps(), 24.0, 4.0));
  table.add_comparison("single-edge jitter rms", "~3.2 ps",
                       fmt_unit(falling.rms.ps(), "ps", 2),
                       bench::verdict(falling.rms.ps(), 3.2, 0.5));
  const double ratio = falling.peak_to_peak.ps() / falling.rms.ps();
  table.add_comparison("p-p / rms ratio", "7.5 (Gaussian, 10^4 edges)",
                       fmt(ratio, 2), bench::verdict(ratio, 7.5, 1.2));

  // Cross-check against extreme-value theory for pure Gaussian RJ.
  const Picoseconds theory =
      sig::expected_gaussian_pp(falling.count, falling.rms);
  table.add_comparison("extreme-value prediction", "p-p consistent with rms",
                       fmt_unit(theory.ps(), "ps", 1),
                       bench::verdict(theory.ps(), falling.peak_to_peak.ps(),
                                      4.0));

  // Rising edges of the same chain behave identically (no quoted number).
  const auto rising = sys.measure_single_edge_jitter(10000, true);
  table.add_comparison("rising-edge jitter p-p", "(not quoted)",
                       fmt_unit(rising.peak_to_peak.ps(), "ps", 1),
                       bench::verdict(rising.peak_to_peak.ps(),
                                      falling.peak_to_peak.ps(), 5.0));
}

void bm_single_edge_jitter(benchmark::State& state) {
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 1);
  sys.start();
  for (auto _ : state) {
    auto j = sys.measure_single_edge_jitter(500);
    benchmark::DoNotOptimize(j);
  }
}
BENCHMARK(bm_single_edge_jitter)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Fig 9 - single-transition jitter (random jitter only)");
  run_reproduction(table);
  return bench::finish(table, argc, argv);
}
