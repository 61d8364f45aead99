// Jitter laboratory: the measurement instruments of the analysis library
// applied to the test-bed channel, the way a bring-up engineer works
// through a jitter problem.
//
//   1. take an eye and read total jitter (Fig 7 style),
//   2. isolate a single edge (Fig 9 style) for the RJ floor,
//   3. decompose the eye's TJ into RJ and DJ (dual-Dirac),
//   4. extrapolate the deep-BER eye from a bathtub fit,
//   5. scan the TIE spectrum for periodic tones (clean here; a deliberate
//      tone is injected on a synthetic channel to show detection).
#include <cstdio>

#include "analysis/berextrap.hpp"
#include "analysis/decompose.hpp"
#include "analysis/spectrum.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/minitester.hpp"
#include "signal/jitter.hpp"
#include "signal/sinks.hpp"

int main() {
  using namespace mgt;

  std::printf("== Jitter lab: working a 2.5 Gbps channel ==\n\n");

  core::TestSystem sys(core::presets::optical_testbed(), 2005);
  sys.program_prbs(7, 0xACE1);
  sys.start();

  // 1. Total jitter from the eye.
  const auto eye = sys.measure_eye(20000);
  std::printf("1. eye:   TJ %.1f ps p-p over %zu edges -> %.3f UI opening\n",
              eye.jitter.peak_to_peak.ps(), eye.jitter.count,
              eye.eye_opening.ui());

  // 2. RJ floor from an isolated edge.
  const auto edge = sys.measure_single_edge_jitter(10000);
  std::printf("2. edge:  isolated falling edge %.1f ps p-p / %.2f ps rms "
              "(pure RJ)\n",
              edge.peak_to_peak.ps(), edge.rms.ps());

  // 3. Dual-Dirac decomposition of the eye acquisition (back on PRBS —
  //    step 2 reprogrammed the DLC with its isolated-edge pattern).
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto stim = sys.generate(24000);
  const auto crossings = stim.crossings();
  const auto split = ana::decompose_jitter(crossings, stim.ui, stim.t0);
  std::printf("3. split: RJ %.2f ps rms + DJ(dd) %.1f ps  "
              "(RJ matches step 2: the mux skew is the DJ)\n",
              split.rj_sigma.ps(), split.dj_pp.ps());
  std::printf("          TJ extrapolated to BER 1e-12: %.1f ps\n",
              split.tj_at_ber(1e-12).ps());

  // 4. Bathtub fit on the mini-tester capture path.
  minitester::MiniTester probe(minitester::MiniTester::Config{}, 2005);
  probe.program_prbs(7, 0xACE1);
  probe.start();
  const auto scan = probe.bathtub(4096, 1);
  const auto fit = ana::fit_bathtub(scan, 1e-5);
  if (fit.valid()) {
    std::printf("4. bathtub fit (5 Gbps capture): RJ %.2f ps, eye at BER "
                "1e-12 = %.0f ps of the 200 ps UI\n",
                fit.rj_sigma().ps(), fit.eye_at_ber(1e-12).ps());
  }

  // 5. TIE spectrum: the real channel is clean; a synthetic channel with
  //    a 4 ps tone at 25 MHz shows what contamination looks like.
  const auto clean_tie = ana::extract_tie(crossings, stim.ui, stim.t0);
  const auto clean_tones =
      ana::find_tones(ana::jitter_spectrum(clean_tie, 256), 8.0);
  std::printf("5. TIE spectrum of the channel: %s\n",
              clean_tones.empty() ? "no periodic tones (clean)"
                                  : "tones detected!");

  sig::JitterSpec dirty;
  dirty.rj_sigma = Picoseconds{2.0};
  dirty.pj_amplitude = Picoseconds{4.0};
  dirty.pj_frequency = Gigahertz{0.025};
  sig::JitterSource source(dirty, Rng(7));
  std::vector<sig::Crossing> contaminated;
  for (std::size_t k = 0; k < 8192; ++k) {
    const Picoseconds nominal{static_cast<double>(k + 1) * 400.0};
    contaminated.push_back({nominal + source.offset(nominal), true});
  }
  const auto dirty_tones = ana::find_tones(ana::jitter_spectrum(
      ana::extract_tie(contaminated, Picoseconds{400.0}), 512));
  if (!dirty_tones.empty()) {
    std::printf("   injected 4 ps @ 25 MHz tone -> detected %.1f ps @ "
                "%.1f MHz\n",
                dirty_tones.front().amplitude.ps(),
                dirty_tones.front().frequency.mhz());
  }
  return 0;
}
