// Text claims (Sections 1, 3, 4 and Summary): 10 ps programmable timing
// resolution over a 10 ns range, with about +-25 ps placement accuracy.
//
// Characterizes the programmable delay line the way an ATE calibration
// pass would: sweep every code, fit the transfer curve, report step size,
// range, INL/DNL, monotonicity and worst placement error — then verify
// edge placement through the whole signal chain.
#include "analysis/timing.hpp"
#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "pecl/delayline.hpp"
#include "util/rng.hpp"

using namespace mgt;

namespace {

void run_reproduction(ReportTable& table) {
  pecl::ProgrammableDelay delay(pecl::ProgrammableDelay::Config{}, Rng(42));

  std::vector<double> codes;
  std::vector<Picoseconds> delays;
  for (std::size_t c = 0; c < delay.code_count(); ++c) {
    codes.push_back(static_cast<double>(c));
    delays.push_back(delay.actual_delay(c));
  }
  const auto fit = ana::fit_delay_linearity(codes, delays);

  table.add_comparison("programmable resolution", "10 ps",
                       fmt_unit(fit.gain_ps_per_code, "ps/code", 3),
                       bench::verdict(fit.gain_ps_per_code, 10.0, 0.1));
  table.add_comparison("programmable range", "10 ns",
                       fmt_unit(delay.full_range().ns(), "ns", 2),
                       bench::verdict(delay.full_range().ns(), 10.0, 0.5));
  table.add_comparison("placement accuracy (worst code)", "about +-25 ps",
                       fmt_unit(delay.worst_case_error().ps(), "ps", 1),
                       delay.worst_case_error().ps() <= 25.0
                           ? "OK (within spec)"
                           : "DEVIATES");
  table.add_comparison("integral nonlinearity", "(not quoted)",
                       fmt_unit(fit.max_inl.ps(), "ps", 1), "-");
  table.add_comparison("monotonic", "required for vernier use",
                       fit.monotonic ? "yes" : "no",
                       fit.monotonic ? "OK (shape holds)" : "DEVIATES");

  // Through-chain placement: program edges on a grid and measure where the
  // serialized, buffered signal actually crosses threshold.
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_pattern(BitVector::alternating(16));
  sys.start();
  const auto stim = sys.generate(4096);
  const auto crossings = stim.crossings();
  // Standard ATE deskew: calibrate out the fixed pipeline offset (first
  // pass measures it), then report residual placement error.
  auto programmed = stim.boundary_grid(4096);
  const auto raw = ana::measure_placement(crossings, programmed);
  for (auto& t : programmed) {
    t += raw.mean_error;
  }
  const auto placement =
      ana::measure_placement(crossings, programmed);
  table.add_comparison("edge placement after deskew cal",
                       "about +-25 ps",
                       fmt_unit(placement.max_abs_error.ps(), "ps", 1),
                       placement.within(Picoseconds{28.0})
                           ? "OK (within spec+jitter)"
                           : "DEVIATES");
  table.add_comparison("  ... rms placement error", "(not quoted)",
                       fmt_unit(placement.rms_error.ps(), "ps", 1), "-");
}

void bm_delay_calibration_sweep(benchmark::State& state) {
  pecl::ProgrammableDelay delay(pecl::ProgrammableDelay::Config{}, Rng(42));
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t c = 0; c < delay.code_count(); ++c) {
      sum += delay.actual_delay(c).ps();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(bm_delay_calibration_sweep);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Text - 10 ps resolution / +-25 ps accuracy over 10 ns range");
  run_reproduction(table);
  return bench::finish(table, argc, argv);
}
