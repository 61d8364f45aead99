// Unit tests for src/analysis: eye metrics, crossover jitter, rise/fall,
// BER, bathtub, and timing-accuracy analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "analysis/ber.hpp"
#include "analysis/berextrap.hpp"
#include "analysis/decompose.hpp"
#include "analysis/eye.hpp"
#include "analysis/risefall.hpp"
#include "analysis/timing.hpp"
#include "signal/render.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mgt::ana {
namespace {

using mgt::BitVector;
using mgt::Rng;
using sig::Crossing;
using sig::EdgeStream;
using sig::FilterChain;
using sig::PeclLevels;

// ----------------------------------------------------- crossover jitter --

std::vector<Crossing> synthetic_crossings(std::size_t n, double ui,
                                          double spread_pp,
                                          double center_phase, Rng& rng) {
  std::vector<Crossing> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double jitter = rng.uniform(-spread_pp / 2.0, spread_pp / 2.0);
    out.push_back({Picoseconds{static_cast<double>(k + 1) * ui +
                               center_phase + jitter},
                   k % 2 == 0});
  }
  return out;
}

TEST(CrossoverJitter, RecoversKnownSpread) {
  Rng rng(5);
  const auto crossings = synthetic_crossings(20000, 400.0, 40.0, 0.0, rng);
  const auto j = measure_crossover_jitter(crossings, Picoseconds{400.0});
  EXPECT_EQ(j.count, 20000u);
  EXPECT_NEAR(j.peak_to_peak.ps(), 40.0, 1.0);
  // Uniform distribution: sigma = pp / sqrt(12).
  EXPECT_NEAR(j.rms.ps(), 40.0 / std::sqrt(12.0), 0.5);
}

TEST(CrossoverJitter, HandlesWraparoundAtUiBoundary) {
  // Crossings centered exactly on the fold boundary (phase 0 == UI) must
  // not split into two clusters.
  Rng rng(6);
  const auto crossings = synthetic_crossings(5000, 400.0, 30.0, 0.0, rng);
  const auto j = measure_crossover_jitter(crossings, Picoseconds{400.0});
  EXPECT_LT(j.peak_to_peak.ps(), 35.0);  // would be ~400 if split
}

TEST(CrossoverJitter, PhaseOffsetRecovered) {
  Rng rng(7);
  const auto crossings = synthetic_crossings(2000, 400.0, 10.0, 123.0, rng);
  const auto j = measure_crossover_jitter(crossings, Picoseconds{400.0});
  EXPECT_NEAR(j.mean_phase.ps(), 123.0, 1.0);
}

TEST(CrossoverJitter, EmptyInput) {
  const auto j = measure_crossover_jitter({}, Picoseconds{400.0});
  EXPECT_EQ(j.count, 0u);
  EXPECT_EQ(j.peak_to_peak.ps(), 0.0);
}

TEST(EdgeJitter, FiltersByDirection) {
  Rng rng(8);
  std::vector<Crossing> crossings;
  for (std::size_t k = 0; k < 1000; ++k) {
    // Rising edges tight, falling edges spread.
    const bool rising = k % 2 == 0;
    const double jitter =
        rising ? rng.uniform(-1.0, 1.0) : rng.uniform(-20.0, 20.0);
    crossings.push_back(
        {Picoseconds{static_cast<double>(k + 1) * 400.0 + jitter}, rising});
  }
  const auto rising = measure_edge_jitter(crossings, Picoseconds{400.0}, true);
  const auto falling =
      measure_edge_jitter(crossings, Picoseconds{400.0}, false);
  EXPECT_LT(rising.peak_to_peak.ps(), 3.0);
  EXPECT_GT(falling.peak_to_peak.ps(), 30.0);
  EXPECT_EQ(rising.count + falling.count, crossings.size());
}

// ------------------------------------------------------------ EyeDiagram --

EyeDiagram::Config basic_eye_config() {
  EyeDiagram::Config config;
  config.ui = Picoseconds{400.0};
  config.t_ref = Picoseconds{0.0};
  config.v_lo = Millivolts{1400.0};
  config.v_hi = Millivolts{2600.0};
  config.threshold = Millivolts{2000.0};
  return config;
}

TEST(EyeDiagram, CleanEyeHasFullOpening) {
  Rng rng(9);
  const auto bits = BitVector::random(4000, rng);
  const auto s = EdgeStream::from_bits(bits, Picoseconds{400.0});
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{60.0});

  EyeDiagram eye(basic_eye_config());
  sig::RenderConfig render_config;
  render_config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  sig::render(s, chain, render_config, Picoseconds{800.0},
              Picoseconds{400.0 * 3999.0}, {&eye});

  const auto metrics = eye.metrics();
  // Deterministic edges: only the pole's tiny ISI spreads the crossings.
  EXPECT_GT(metrics.eye_opening.ui(), 0.97);
  EXPECT_GT(metrics.eye_height.mv(), 600.0);
  EXPECT_NEAR(metrics.level_high.mv(), 2400.0, 10.0);
  EXPECT_NEAR(metrics.level_low.mv(), 1600.0, 10.0);
  EXPECT_GT(eye.total_samples(), 1000u);
}

TEST(EyeDiagram, JitterClosesTheEyeProportionally) {
  Rng data_rng(10);
  Rng jitter_rng(11);
  const auto bits = BitVector::random(8000, data_rng);
  const double dj = 60.0;
  auto offset = [&](std::size_t, Picoseconds) {
    return Picoseconds{jitter_rng.chance(0.5) ? dj / 2.0 : -dj / 2.0};
  };
  const auto s =
      EdgeStream::from_bits(bits, Picoseconds{400.0}, Picoseconds{0.0}, offset);
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{40.0});

  EyeDiagram eye(basic_eye_config());
  sig::RenderConfig render_config;
  render_config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  sig::render(s, chain, render_config, Picoseconds{800.0},
              Picoseconds{400.0 * 7999.0}, {&eye});

  const auto metrics = eye.metrics();
  // TJ ~= DJ of 60 ps -> opening ~= 1 - 60/400 = 0.85 UI.
  EXPECT_NEAR(metrics.jitter.peak_to_peak.ps(), dj, 8.0);
  EXPECT_NEAR(metrics.eye_opening.ui(), 1.0 - dj / 400.0, 0.03);
}

TEST(EyeDiagram, AsciiArtHasExpectedShape) {
  Rng rng(12);
  const auto bits = BitVector::random(2000, rng);
  const auto s = EdgeStream::from_bits(bits, Picoseconds{400.0});
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{60.0});
  EyeDiagram eye(basic_eye_config());
  sig::RenderConfig render_config;
  render_config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  sig::render(s, chain, render_config, Picoseconds{800.0},
              Picoseconds{400.0 * 1999.0}, {&eye});
  const auto art = eye.ascii_art(64, 16);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 16);
  EXPECT_NE(art.find('@'), std::string::npos);  // dense rails
  EXPECT_NE(art.find(' '), std::string::npos);  // open eye center
}

TEST(EyeDiagram, InvalidConfigThrows) {
  auto config = basic_eye_config();
  config.v_hi = config.v_lo;
  EXPECT_THROW(EyeDiagram{config}, mgt::Error);
  config = basic_eye_config();
  config.time_bins = 0;
  EXPECT_THROW(EyeDiagram{config}, mgt::Error);
  // Non-finite values: the bin boundaries need finite ends.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    SCOPED_TRACE(bad);
    config = basic_eye_config();
    config.ui = Picoseconds{bad};
    EXPECT_THROW(EyeDiagram{config}, mgt::Error);
    config = basic_eye_config();
    config.t_ref = Picoseconds{bad};
    EXPECT_THROW(EyeDiagram{config}, mgt::Error);
    config = basic_eye_config();
    config.v_lo = Millivolts{bad};
    EXPECT_THROW(EyeDiagram{config}, mgt::Error);
    config = basic_eye_config();
    config.v_hi = Millivolts{bad};
    EXPECT_THROW(EyeDiagram{config}, mgt::Error);
    config = basic_eye_config();
    config.threshold = Millivolts{bad};
    EXPECT_THROW(EyeDiagram{config}, mgt::Error);
  }
  // Finite ends whose 2-UI span or volt range overflows.
  const double big = std::numeric_limits<double>::max();
  config = basic_eye_config();
  config.ui = Picoseconds{big};
  EXPECT_THROW(EyeDiagram{config}, mgt::Error);
  config = basic_eye_config();
  config.v_lo = Millivolts{-big};
  config.v_hi = Millivolts{big};
  EXPECT_THROW(EyeDiagram{config}, mgt::Error);
}

TEST(EyeDiagram, MergeRejectsDifferentConfig) {
  const EyeDiagram::Config base = basic_eye_config();
  EyeDiagram eye{base};
  EyeDiagram same{base};
  EXPECT_NO_THROW(eye.merge(same));
  std::vector<EyeDiagram::Config> others(7, base);
  others[0].ui = base.ui + Picoseconds{1.0};
  others[1].t_ref = base.t_ref + Picoseconds{1.0};
  others[2].v_lo = base.v_lo - Millivolts{1.0};
  others[3].v_hi = base.v_hi + Millivolts{1.0};
  others[4].threshold = base.threshold + Millivolts{1.0};
  others[5].time_bins = base.time_bins + 1;
  others[6].volt_bins = base.volt_bins + 1;
  for (std::size_t i = 0; i < others.size(); ++i) {
    SCOPED_TRACE(i);
    const EyeDiagram other{others[i]};
    EXPECT_THROW(eye.merge(other), mgt::Error);
  }
}

// -------------------------------------------------------------- risefall --

TEST(RiseFall, SinglePoleAnalyticRiseTime) {
  const auto s = EdgeStream::from_bits(BitVector::alternating(40),
                                       Picoseconds{2000.0});
  FilterChain chain;
  const double tau = 50.0;
  chain.add_pole(Picoseconds{tau});
  RiseFallMeter meter(Millivolts{1600.0}, Millivolts{2400.0});
  sig::RenderConfig render_config;
  render_config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  sig::render(s, chain, render_config, Picoseconds{0.0},
              Picoseconds{2000.0 * 39.0}, {&meter});

  EXPECT_GT(meter.rise().count(), 10u);
  EXPECT_GT(meter.fall().count(), 10u);
  EXPECT_NEAR(meter.mean_rise().ps(), tau * std::log(4.0), 0.5);
  EXPECT_NEAR(meter.mean_fall().ps(), tau * std::log(4.0), 0.5);
}

TEST(RiseFall, IncompleteTransitionsAreNotCounted) {
  // At 5 Gbps with a very slow pole, single-bit pulses never reach 80 %.
  const auto s = EdgeStream::from_bits(BitVector::alternating(200),
                                       Picoseconds{100.0});
  FilterChain chain;
  chain.add_pole(Picoseconds{400.0});  // rise >> UI
  RiseFallMeter meter(Millivolts{1600.0}, Millivolts{2400.0});
  sig::RenderConfig render_config;
  render_config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  sig::render(s, chain, render_config, Picoseconds{0.0},
              Picoseconds{100.0 * 199.0}, {&meter});
  EXPECT_EQ(meter.rise().count(), 0u);
  EXPECT_EQ(meter.fall().count(), 0u);
}

TEST(RiseFall, InvalidLevelsThrow) {
  EXPECT_THROW(RiseFallMeter(Millivolts{2400.0}, Millivolts{1600.0}),
               mgt::Error);
}

// ------------------------------------------------------------------- ber --

TEST(Ber, CompareCountsMismatches) {
  const auto a = BitVector::from_string("10110010");
  const auto b = BitVector::from_string("10010011");
  const auto r = compare_bits(a, b);
  EXPECT_EQ(r.bits_compared, 8u);
  EXPECT_EQ(r.errors, 2u);
  EXPECT_DOUBLE_EQ(r.ber(), 0.25);
}

TEST(Ber, AlignedFindsShift) {
  Rng rng(13);
  const auto expected = BitVector::random(400, rng);
  BitVector captured = BitVector::from_string("110");
  captured.append(expected);
  const auto r = compare_bits_aligned(captured, expected, 8);
  EXPECT_EQ(r.alignment, 3u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(Ber, AlignedNoShiftNeeded) {
  const auto v = BitVector::from_string("1100110011");
  const auto r = compare_bits_aligned(v, v, 4);
  EXPECT_EQ(r.alignment, 0u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(Ber, EmptyComparableIsTotalFailure) {
  const BitVector empty;
  const auto r = compare_bits(empty, empty);
  EXPECT_EQ(r.bits_compared, 0u);
  EXPECT_DOUBLE_EQ(r.ber(), 1.0);
}

TEST(Bathtub, OpeningMeasuresPassingRun) {
  std::vector<BathtubPoint> scan;
  for (int i = 0; i <= 20; ++i) {
    BathtubPoint p;
    p.strobe_offset = Picoseconds{static_cast<double>(i) * 10.0};
    p.ber = (i >= 5 && i <= 15) ? 0.0 : 0.4;
    scan.push_back(p);
  }
  EXPECT_DOUBLE_EQ(bathtub_opening(scan, 1e-3).ps(), 110.0);
  EXPECT_DOUBLE_EQ(bathtub_opening(scan, 0.5).ps(), 210.0);
  EXPECT_DOUBLE_EQ(bathtub_opening({}, 0.5).ps(), 0.0);
}

// ---------------------------------------------------------------- timing --

TEST(Timing, PlacementAccuracyAgainstKnownOffsets) {
  std::vector<Picoseconds> programmed;
  std::vector<Crossing> measured;
  for (int k = 0; k < 100; ++k) {
    const double t = 1000.0 * (k + 1);
    programmed.push_back(Picoseconds{t});
    const double error = (k % 2 == 0) ? 12.0 : -8.0;
    measured.push_back({Picoseconds{t + error}, true});
  }
  const auto acc = measure_placement(measured, programmed);
  EXPECT_EQ(acc.count, 100u);
  EXPECT_NEAR(acc.max_abs_error.ps(), 12.0, 1e-9);
  EXPECT_NEAR(acc.mean_error.ps(), 2.0, 1e-9);
  EXPECT_TRUE(acc.within(Picoseconds{25.0}));
  EXPECT_FALSE(acc.within(Picoseconds{10.0}));
}

TEST(Timing, PlacementRequiresSortedProgrammed) {
  EXPECT_THROW(
      measure_placement({}, {Picoseconds{10.0}, Picoseconds{5.0}}),
      mgt::Error);
}

TEST(Timing, DelayLinearityFitRecoversGainAndOffset) {
  std::vector<double> codes;
  std::vector<Picoseconds> delays;
  for (int c = 0; c < 256; ++c) {
    codes.push_back(c);
    // gain 10.05 ps/code, offset 3 ps, bounded bow INL.
    const double inl = 4.0 * std::sin(c / 255.0 * 3.14159);
    delays.push_back(Picoseconds{3.0 + 10.05 * c + inl});
  }
  const auto fit = fit_delay_linearity(codes, delays);
  EXPECT_NEAR(fit.gain_ps_per_code, 10.05, 0.05);
  EXPECT_NEAR(fit.offset.ps(), 3.0, 3.0);
  EXPECT_LT(fit.max_inl.ps(), 6.0);
  EXPECT_TRUE(fit.monotonic);
}

TEST(Timing, DelayLinearityDetectsNonMonotonicity) {
  const std::vector<double> codes = {0, 1, 2, 3};
  const std::vector<Picoseconds> delays = {
      Picoseconds{0.0}, Picoseconds{10.0}, Picoseconds{8.0},
      Picoseconds{30.0}};
  const auto fit = fit_delay_linearity(codes, delays);
  EXPECT_FALSE(fit.monotonic);
  EXPECT_GT(fit.max_dnl.ps(), 5.0);
}

TEST(Timing, DelayLinearityNeedsTwoPoints) {
  EXPECT_THROW(fit_delay_linearity({1.0}, {Picoseconds{10.0}}), mgt::Error);
}

// -------------------------------------------- BER extrapolation (Q scale) --

TEST(BerExtrap, QScaleMatchesNormalQuantiles) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(q_of_ber(0.5 * std::erfc(1.0 / std::sqrt(2.0))), 1.0, 1e-7);
  EXPECT_NEAR(q_of_ber(1e-3), 3.0902, 1e-3);
  EXPECT_NEAR(q_of_ber(1e-12), 7.0345, 1e-3);
  EXPECT_THROW(inverse_normal_cdf(0.0), mgt::Error);
  EXPECT_THROW(inverse_normal_cdf(1.0), mgt::Error);
  EXPECT_THROW(q_of_ber(0.0), mgt::Error);
}

/// BER of a Gaussian wall at Q sigmas into the tail (inverse of q_of_ber).
double ber_of_q(double q) { return 0.5 * std::erfc(q / std::sqrt(2.0)); }

TEST(BerExtrap, FitRecoversKnownDualDiracWalls) {
  // Synthesize a bathtub exactly on the dual-Dirac model: left edge at
  // 30 ps / sigma 3 ps, right edge at 370 ps / sigma 4 ps.
  const double mu_l = 30.0, sigma_l = 3.0;
  const double mu_r = 370.0, sigma_r = 4.0;
  std::vector<BathtubPoint> scan;
  for (double q = 0.5; q <= 4.5; q += 0.5) {
    scan.push_back({Picoseconds{mu_l + q * sigma_l}, ber_of_q(q), 0, 0});
  }
  scan.push_back({Picoseconds{200.0}, 1e-15, 0, 0});  // eye center (best)
  for (double q = 4.5; q >= 0.5; q -= 0.5) {
    scan.push_back({Picoseconds{mu_r - q * sigma_r}, ber_of_q(q), 0, 0});
  }

  const auto fit = fit_bathtub(scan);
  ASSERT_TRUE(fit.valid());
  EXPECT_NEAR(fit.left_mu.ps(), mu_l, 0.05);
  EXPECT_NEAR(fit.left_sigma.ps(), sigma_l, 0.05);
  EXPECT_NEAR(fit.right_mu.ps(), mu_r, 0.05);
  EXPECT_NEAR(fit.right_sigma.ps(), sigma_r, 0.05);
  EXPECT_NEAR(fit.rj_sigma().ps(), (sigma_l + sigma_r) / 2.0, 0.05);

  // Extrapolated opening at BER 1e-12 follows TJ = DJ + 2*Q*RJ.
  const double q12 = q_of_ber(1e-12);
  const double expected =
      (mu_r - q12 * sigma_r) - (mu_l + q12 * sigma_l);
  EXPECT_NEAR(fit.eye_at_ber(1e-12).ps(), expected, 0.5);
  // A deeper BER target always shrinks the extrapolated eye.
  EXPECT_LT(fit.eye_at_ber(1e-12).ps(), fit.eye_at_ber(1e-9).ps());
}

TEST(BerExtrap, DegenerateScansAreInvalid) {
  EXPECT_FALSE(fit_bathtub({}).valid());
  // Too few points.
  std::vector<BathtubPoint> tiny = {{Picoseconds{0.0}, 0.3, 0, 0},
                                    {Picoseconds{10.0}, 1e-9, 0, 0},
                                    {Picoseconds{20.0}, 0.3, 0, 0}};
  EXPECT_FALSE(fit_bathtub(tiny).valid());
  // All points outside the fit band (passing region only).
  std::vector<BathtubPoint> flat;
  for (int i = 0; i < 8; ++i) {
    flat.push_back({Picoseconds{double(i) * 10.0}, 1e-12, 0, 0});
  }
  EXPECT_FALSE(fit_bathtub(flat).valid());
}

TEST(BerExtrap, FitLineChecksSizesAndFitsExactly) {
  // A ys shorter than xs used to be read past its end.
  EXPECT_THROW(fit_line({0.0, 1.0, 2.0}, {1.0, 3.0}), mgt::Error);
  EXPECT_THROW(fit_line({0.0, 1.0}, {1.0, 3.0, 5.0}), mgt::Error);
  const auto fit = fit_line({0.0, 1.0, 2.0}, {1.0, 3.0, 5.0});
  ASSERT_TRUE(fit.has_value());
  EXPECT_DOUBLE_EQ(fit->slope, 2.0);
  EXPECT_DOUBLE_EQ(fit->intercept, 1.0);
  EXPECT_FALSE(fit_line({1.0}, {2.0}).has_value());
  EXPECT_FALSE(fit_line({1.0, 1.0}, {0.0, 2.0}).has_value());  // vertical
}

// ------------------------------------------------- jitter decomposition --

TEST(Decompose, RecoversKnownRjDjSplit) {
  // Crossings drawn from an exact dual-Dirac + Gaussian model: two Dirac
  // components dj_pp apart, each blurred by rj_sigma of random jitter.
  const double ui = 400.0;
  const double rj_sigma = 3.0;
  const double dj_pp = 20.0;
  Rng rng(2024);
  std::vector<Crossing> crossings;
  for (std::size_t k = 0; k < 20000; ++k) {
    const double dirac = (k % 2 == 0) ? -dj_pp / 2.0 : dj_pp / 2.0;
    const double t = double(k) * ui + ui / 2.0 + dirac +
                     rng.gaussian(0.0, rj_sigma);
    crossings.push_back({Picoseconds{t}, k % 2 == 0});
  }

  const auto split = decompose_jitter(crossings, Picoseconds{ui});
  ASSERT_TRUE(split.valid);
  EXPECT_EQ(split.samples, crossings.size());
  // Dual-Dirac estimates carry the method's documented bias: the mixture
  // CDF inflates the fitted sigma slightly and pulls the Dirac means
  // inward (RJ reads high, DJ(dd) reads low) — but the TJ extrapolation
  // the split exists for stays accurate.
  EXPECT_GE(split.rj_sigma.ps(), rj_sigma - 0.2);
  EXPECT_LE(split.rj_sigma.ps(), rj_sigma + 0.6);
  EXPECT_GE(split.dj_pp.ps(), dj_pp - 4.5);
  EXPECT_LE(split.dj_pp.ps(), dj_pp + 1.0);
  const double tj_true = dj_pp + 2.0 * q_of_ber(1e-12) * rj_sigma;
  EXPECT_NEAR(split.tj_at_ber(1e-12).ps(), tj_true, 4.0);
}

TEST(Decompose, PureGaussianJitterHasNoDeterministicPart) {
  const double ui = 400.0;
  const double rj_sigma = 3.2;
  Rng rng(7);
  std::vector<Crossing> crossings;
  for (std::size_t k = 0; k < 20000; ++k) {
    const double t = double(k) * ui + ui / 2.0 + rng.gaussian(0.0, rj_sigma);
    crossings.push_back({Picoseconds{t}, k % 2 == 0});
  }
  const auto split = decompose_jitter(crossings, Picoseconds{ui});
  ASSERT_TRUE(split.valid);
  EXPECT_NEAR(split.rj_sigma.ps(), rj_sigma, 0.4);
  EXPECT_LT(split.dj_pp.ps(), 1.5);
}

TEST(Decompose, TooFewCrossingsAreInvalid) {
  std::vector<Crossing> few;
  for (std::size_t k = 0; k < 99; ++k) {
    few.push_back({Picoseconds{double(k) * 400.0 + 200.0}, true});
  }
  EXPECT_FALSE(decompose_jitter(few, Picoseconds{400.0}).valid);
}

}  // namespace
}  // namespace mgt::ana
