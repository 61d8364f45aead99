// Ablation A6: jitter instrumentation cross-check.
//
// The paper separates "random jitter in the internal clock and the logic
// circuitry" (Fig 9) from the data-dependent and bounded contributions
// seen in the eyes (Figs 7/8). This bench runs the full instrumentation
// stack on controlled inputs: dual-Dirac decomposition recovers injected
// RJ/DJ, and the TIE spectrum localizes an injected periodic tone — then
// both run on the real test-bed channel.
#include "analysis/decompose.hpp"
#include "analysis/spectrum.hpp"
#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "signal/jitter.hpp"
#include "signal/sinks.hpp"

using namespace mgt;

namespace {

std::vector<sig::Crossing> controlled_edges(std::size_t n, double ui,
                                            const sig::JitterSpec& spec,
                                            Rng rng) {
  sig::JitterSource source(spec, rng);
  std::vector<sig::Crossing> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Picoseconds nominal{static_cast<double>(k + 1) * ui};
    out.push_back({nominal + source.offset(nominal), true});
  }
  return out;
}

void run_reproduction(ReportTable& table) {
  // Controlled input: RJ 3.2 ps + DJ 20 ps + 4 ps PJ at 40 MHz.
  sig::JitterSpec spec;
  spec.rj_sigma = Picoseconds{3.2};
  spec.dj_pp = Picoseconds{20.0};
  spec.pj_amplitude = Picoseconds{4.0};
  spec.pj_frequency = Gigahertz{0.04};
  const auto crossings = controlled_edges(16384, 400.0, spec, Rng(5));

  const auto decomposition =
      ana::decompose_jitter(crossings, Picoseconds{400.0});
  // Known dual-Dirac bias: unresolved sinusoidal PJ inflates the fitted
  // Gaussian sigma (its density peaks at the extremes), so the estimate
  // lands between the true RJ and RJ+PJ.
  const bool rj_ok = decomposition.rj_sigma.ps() >= 3.2 - 0.5 &&
                     decomposition.rj_sigma.ps() <= 3.2 + 4.0 / 2.0;
  table.add_comparison("decomposed RJ (injected 3.2 ps + 4 ps PJ)",
                       "in [RJ, RJ + PJ/2] (PJ inflates the tails)",
                       fmt_unit(decomposition.rj_sigma.ps(), "ps", 2),
                       rj_ok ? "OK (known PJ bias)" : "DEVIATES");
  table.add_comparison(
      "decomposed DJ (injected 20 ps dual-Dirac + PJ)",
      "DJ(dd) <= injected bounded jitter",
      fmt_unit(decomposition.dj_pp.ps(), "ps", 1),
      decomposition.dj_pp.ps() > 14.0 && decomposition.dj_pp.ps() < 30.0
          ? "OK (shape holds)"
          : "DEVIATES");

  const auto tie = ana::extract_tie(crossings, Picoseconds{400.0});
  const auto tones = ana::find_tones(ana::jitter_spectrum(tie, 512));
  if (!tones.empty()) {
    table.add_comparison("strongest TIE tone (injected 40 MHz, 4 ps)",
                         "tone localized",
                         fmt(tones.front().frequency.mhz(), 1) + " MHz, " +
                             fmt(tones.front().amplitude.ps(), 1) + " ps",
                         bench::verdict(tones.front().frequency.mhz(), 40.0,
                                        4.0));
  } else {
    table.add_comparison("strongest TIE tone", "tone localized", "none",
                         "DEVIATES");
  }

  // The real channel: decomposition of the Fig 7 acquisition plus a
  // spectral check that the chain itself carries no periodic tones.
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto stim = sys.generate(16384);
  const auto real_crossings = stim.crossings();
  const auto real_d =
      ana::decompose_jitter(real_crossings, stim.ui, stim.t0);
  table.add_comparison("test-bed channel RJ (Fig 9 budget: 3.2 ps)",
                       "chain RJ consistent with Fig 9",
                       fmt_unit(real_d.rj_sigma.ps(), "ps", 2),
                       bench::verdict(real_d.rj_sigma.ps(), 3.2, 1.5));
  const auto real_tie =
      ana::extract_tie(real_crossings, stim.ui, stim.t0);
  const auto real_tones =
      ana::find_tones(ana::jitter_spectrum(real_tie, 256), 8.0);
  table.add_comparison("test-bed channel periodic tones",
                       "none (clean supplies/RF source)",
                       real_tones.empty()
                           ? "none detected"
                           : fmt(real_tones.front().amplitude.ps(), 1) +
                                 " ps tone",
                       real_tones.empty() ? "OK (clean)" : "DEVIATES");
}

void bm_spectrum_16k(benchmark::State& state) {
  sig::JitterSpec spec;
  spec.rj_sigma = Picoseconds{3.0};
  const auto crossings = controlled_edges(4096, 400.0, spec, Rng(9));
  const auto tie = ana::extract_tie(crossings, Picoseconds{400.0});
  for (auto _ : state) {
    auto spectrum = ana::jitter_spectrum(tie, 256);
    benchmark::DoNotOptimize(spectrum);
  }
}
BENCHMARK(bm_spectrum_16k)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Ablation A6 - jitter instrumentation cross-check (RJ/DJ/PJ)");
  run_reproduction(table);
  return bench::finish(table, argc, argv);
}
