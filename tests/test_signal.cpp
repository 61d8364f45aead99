// Unit tests for src/signal: edge streams, jitter, filters, rendering,
// sinks and channels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "signal/channel.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/jitter.hpp"
#include "signal/levels.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "waveform_trace.hpp"

namespace mgt::sig {
namespace {

using mgt::BitVector;
using mgt::Rng;
using mgt::RunningStats;

// ------------------------------------------------------------ EdgeStream --

TEST(EdgeStream, FromBitsPlacesTransitionsAtBoundaries) {
  const auto bits = BitVector::from_string("0110");
  const auto s = EdgeStream::from_bits(bits, Picoseconds{400.0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.initial_level());
  EXPECT_DOUBLE_EQ(s.transitions()[0].time.ps(), 400.0);
  EXPECT_TRUE(s.transitions()[0].level);
  EXPECT_DOUBLE_EQ(s.transitions()[1].time.ps(), 1200.0);
  EXPECT_FALSE(s.transitions()[1].level);
  EXPECT_TRUE(s.well_formed());
}

class NrzRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(NrzRoundTrip, ToBitsRecoversFromBits) {
  const Picoseconds ui{GetParam()};
  Rng rng(99);
  const auto bits = BitVector::random(500, rng);
  const auto s = EdgeStream::from_bits(bits, ui, Picoseconds{123.0});
  EXPECT_EQ(s.to_bits(500, ui, Picoseconds{123.0}), bits);
}

INSTANTIATE_TEST_SUITE_P(UnitIntervals, NrzRoundTrip,
                         ::testing::Values(1000.0, 400.0, 250.0, 200.0));

TEST(EdgeStream, JitterRoundTripStillRecovers) {
  // Jitter well below UI/2 must not corrupt center-sampled data.
  Rng rng(7);
  Rng jrng(8);
  const Picoseconds ui{400.0};
  const auto bits = BitVector::random(2000, rng);
  auto offset = [&](std::size_t, Picoseconds) {
    return Picoseconds{jrng.gaussian(0.0, 20.0)};
  };
  const auto s = EdgeStream::from_bits(bits, ui, Picoseconds{0.0}, offset);
  EXPECT_TRUE(s.well_formed());
  EXPECT_EQ(s.to_bits(2000, ui), bits);
}

TEST(EdgeStream, ExtremeJitterKeepsMonotonicity) {
  Rng jrng(9);
  const auto bits = BitVector::alternating(1000);
  auto offset = [&](std::size_t, Picoseconds) {
    return Picoseconds{jrng.gaussian(0.0, 300.0)};  // > UI/2: pulse collapse
  };
  const auto s = EdgeStream::from_bits(bits, Picoseconds{400.0},
                                       Picoseconds{0.0}, offset);
  EXPECT_TRUE(s.well_formed());
}

TEST(EdgeStream, Clock) {
  const auto clk = EdgeStream::clock(Picoseconds{800.0}, 3);
  ASSERT_EQ(clk.size(), 6u);
  EXPECT_TRUE(clk.transitions()[0].level);  // rising first
  EXPECT_DOUBLE_EQ(clk.transitions()[0].time.ps(), 0.0);
  EXPECT_DOUBLE_EQ(clk.transitions()[1].time.ps(), 400.0);
  EXPECT_DOUBLE_EQ(clk.transitions()[5].time.ps(), 2000.0);
}

TEST(EdgeStream, LevelAt) {
  const auto s = EdgeStream::from_bits(BitVector::from_string("0101"),
                                       Picoseconds{100.0});
  EXPECT_FALSE(s.level_at(Picoseconds{50.0}));
  EXPECT_TRUE(s.level_at(Picoseconds{150.0}));
  EXPECT_FALSE(s.level_at(Picoseconds{250.0}));
  EXPECT_TRUE(s.level_at(Picoseconds{1e9}));
  EXPECT_FALSE(s.level_at(Picoseconds{-10.0}));
}

TEST(EdgeStream, ShiftAndInvert) {
  const auto s = EdgeStream::from_bits(BitVector::from_string("01"),
                                       Picoseconds{100.0});
  const auto shifted = s.shifted(Picoseconds{37.0});
  EXPECT_DOUBLE_EQ(shifted.transitions()[0].time.ps(), 137.0);
}

TEST(EdgeStream, PushValidation) {
  EdgeStream s(false);
  s.push(Picoseconds{10.0}, true);
  EXPECT_THROW(s.push(Picoseconds{5.0}, false), Error);   // time reversal
  EXPECT_THROW(s.push(Picoseconds{20.0}, true), Error);   // no level change
  s.push(Picoseconds{20.0}, false);
  EXPECT_EQ(s.size(), 2u);
}

TEST(EdgeStream, Window) {
  const auto s = EdgeStream::from_bits(BitVector::alternating(10),
                                       Picoseconds{100.0});
  const auto w = s.window(Picoseconds{250.0}, Picoseconds{650.0});
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w.front().time.ps(), 300.0);
  EXPECT_DOUBLE_EQ(w.back().time.ps(), 600.0);
}

// --------------------------------------------------------------- jitter --

TEST(Jitter, RjSigmaIsRealized) {
  JitterSpec spec;
  spec.rj_sigma = Picoseconds{3.2};
  JitterSource src(spec, Rng(42));
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(src.offset(Picoseconds{0.0}).ps());
  }
  EXPECT_NEAR(stats.stddev(), 3.2, 0.1);
  EXPECT_NEAR(stats.mean(), 0.0, 0.1);
}

TEST(Jitter, DualDiracIsBimodalAndBounded) {
  JitterSpec spec;
  spec.dj_pp = Picoseconds{20.0};
  JitterSource src(spec, Rng(43));
  bool saw_plus = false;
  bool saw_minus = false;
  for (int i = 0; i < 1000; ++i) {
    const double dt = src.offset(Picoseconds{0.0}).ps();
    EXPECT_TRUE(std::abs(std::abs(dt) - 10.0) < 1e-12);
    saw_plus |= dt > 0;
    saw_minus |= dt < 0;
  }
  EXPECT_TRUE(saw_plus);
  EXPECT_TRUE(saw_minus);
}

TEST(Jitter, PeriodicJitterFollowsSine) {
  JitterSpec spec;
  spec.pj_amplitude = Picoseconds{5.0};
  spec.pj_frequency = Gigahertz{0.001};  // period = 1e6 ps
  JitterSource src(spec, Rng(45));
  EXPECT_NEAR(src.offset(Picoseconds{0.0}).ps(), 0.0, 1e-9);
  EXPECT_NEAR(src.offset(Picoseconds{250000.0}).ps(), 5.0, 1e-6);
  EXPECT_NEAR(src.offset(Picoseconds{750000.0}).ps(), -5.0, 1e-6);
}

TEST(Jitter, ApplyPreservesWellFormedness) {
  JitterSpec spec;
  spec.rj_sigma = Picoseconds{50.0};
  JitterSource src(spec, Rng(46));
  const auto in = EdgeStream::from_bits(BitVector::alternating(500),
                                        Picoseconds{200.0});
  const auto out = src.apply(in);
  EXPECT_TRUE(out.well_formed());
  EXPECT_EQ(out.size(), in.size());
}

TEST(Jitter, ExpectedGaussianPpGrowsWithN) {
  const Picoseconds pp_1k = expected_gaussian_pp(1000, Picoseconds{3.2});
  const Picoseconds pp_10k = expected_gaussian_pp(10000, Picoseconds{3.2});
  EXPECT_GT(pp_10k, pp_1k);
  // Paper's Fig 9: 3.2 ps rms shows ~24 ps p-p on a 10^4-edge acquisition.
  EXPECT_NEAR(pp_10k.ps(), 24.0, 2.0);
  EXPECT_EQ(expected_gaussian_pp(0, Picoseconds{3.2}).ps(), 0.0);
  EXPECT_EQ(expected_gaussian_pp(100, Picoseconds{0.0}).ps(), 0.0);
}

TEST(Jitter, TotalJitterAddsDjToRj) {
  EXPECT_NEAR(expected_total_jitter_pp(10000, Picoseconds{3.2},
                                       Picoseconds{23.0})
                  .ps(),
              47.0, 2.0);
}

// --------------------------------------------------------------- filter --

TEST(Filter, SinglePoleRiseTime) {
  EXPECT_NEAR(single_pole_rise_2080(Picoseconds{50.0}).ps(),
              50.0 * std::log(4.0), 1e-9);
  EXPECT_NEAR(tau_for_rise_2080(Picoseconds{70.0}).ps(), 70.0 / std::log(4.0),
              1e-9);
}

TEST(Filter, StepResponseMatchesAnalytic) {
  FilterChain chain;
  const double tau = 50.0;
  chain.add_pole(Picoseconds{tau});
  chain.reset(Millivolts{0.0});
  // Step to 1000 mV, advance in odd-sized steps; compare to 1 - e^{-t/tau}.
  double t = 0.0;
  for (double dt : {3.0, 7.0, 11.0, 29.0, 50.0, 100.0}) {
    chain.step(Millivolts{1000.0}, Picoseconds{dt});
    t += dt;
    const double expected = 1000.0 * (1.0 - std::exp(-t / tau));
    EXPECT_NEAR(chain.output().mv(), expected, 1e-6) << "t=" << t;
  }
}

TEST(Filter, StepExactnessIndependentOfStepSize) {
  // The exponential update is exact for constant input: fine and coarse
  // stepping must agree to machine precision.
  FilterChain fine;
  FilterChain coarse;
  fine.add_pole(Picoseconds{36.0});
  coarse.add_pole(Picoseconds{36.0});
  fine.reset(Millivolts{0.0});
  coarse.reset(Millivolts{0.0});
  for (int i = 0; i < 1000; ++i) {
    fine.step(Millivolts{500.0}, Picoseconds{0.1});
  }
  coarse.step(Millivolts{500.0}, Picoseconds{100.0});
  EXPECT_NEAR(fine.output().mv(), coarse.output().mv(), 1e-6);
}

TEST(Filter, GainActsAroundMidpoint) {
  FilterChain chain;
  chain.set_gain(0.5, Millivolts{2000.0});
  chain.reset(Millivolts{2400.0});
  EXPECT_NEAR(chain.output().mv(), 2200.0, 1e-9);  // 2000 + 0.5*400
  chain.step(Millivolts{1600.0}, Picoseconds{1.0});
  EXPECT_NEAR(chain.output().mv(), 1800.0, 1e-9);  // no poles: passthrough
}

TEST(Filter, RiseEstimateAndGroupDelay) {
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{60.0});
  chain.add_pole_rise_2080(Picoseconds{80.0});
  EXPECT_NEAR(chain.rise_2080_estimate().ps(), 100.0, 1e-9);  // 3-4-5
  EXPECT_NEAR(chain.group_delay().ps(),
              (60.0 + 80.0) / std::log(4.0), 1e-9);
  EXPECT_EQ(chain.pole_count(), 2u);
}

TEST(Filter, InvalidPoleThrows) {
  FilterChain chain;
  EXPECT_THROW(chain.add_pole(Picoseconds{0.0}), Error);
  EXPECT_THROW(chain.add_pole(Picoseconds{-5.0}), Error);
  EXPECT_THROW(chain.set_gain(0.0, Millivolts{0.0}), Error);
}

TEST(Filter, NinthPoleThrows) {
  FilterChain chain;
  for (std::size_t i = 0; i < FilterChain::kMaxPoles; ++i) {
    chain.add_pole(Picoseconds{10.0 + static_cast<double>(i)});
  }
  EXPECT_EQ(chain.pole_count(), 8u);
  EXPECT_THROW(chain.add_pole(Picoseconds{20.0}), Error);
  EXPECT_EQ(chain.pole_count(), 8u);
}

// --------------------------------------------------------------- render --

TEST(Render, SquareWaveLevelsAndCrossings) {
  const auto s = EdgeStream::from_bits(BitVector::alternating(20, true),
                                       Picoseconds{400.0});
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{60.0});
  RenderConfig config;
  config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  CrossingRecorder crossings(Millivolts{2000.0});
  AmplitudeTracker amplitude(Millivolts{2000.0});
  render(s, chain, config, Picoseconds{0.0}, Picoseconds{8000.0},
         {&crossings, &amplitude});

  // 19 interior transitions -> 19 threshold crossings.
  EXPECT_EQ(crossings.crossings().size(), 19u);
  EXPECT_NEAR(amplitude.settled_high().mv(), 2400.0, 5.0);
  EXPECT_NEAR(amplitude.settled_low().mv(), 1600.0, 5.0);
}

// Step response of n equal unit poles at t = x * tau: the Erlang CDF,
// 1 - exp(-x) * sum_{k<n} x^k / k!.
double erlang_cdf(std::size_t n, double x) {
  double term = 1.0;
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += term;
    term *= x / static_cast<double>(k + 1);
  }
  return 1.0 - std::exp(-x) * sum;
}

// 50 % delay of n equal unit poles (bisection on the Erlang CDF).
double erlang_median(std::size_t n) {
  double lo = 0.0;
  double hi = 2.0 * static_cast<double>(n) + 2.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (erlang_cdf(n, mid) < 0.5 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

class RenderPoles : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RenderPoles, CrossingTimeMatchesAnalyticLessPoleLead) {
  // One rising step through N equal poles. The first pole is exact; each
  // later pole is stepped on the previous stage's end-of-step value and
  // leads the continuous-time response by dt/2. The lead is a constant
  // delay: the crossing keeps its place relative to the edge for every
  // sub-grid edge phase.
  const std::size_t poles = GetParam();
  const double tau = 20.0;
  const double dt = 0.5;
  const double expected = tau * erlang_median(poles) -
                          static_cast<double>(poles - 1) * dt / 2.0;
  double min_delay = 1e9;
  double max_delay = -1e9;
  for (int phase = 0; phase < 8; ++phase) {
    const double edge = 1000.0 + dt * phase / 8.0;
    EdgeStream s(false);
    s.push(Picoseconds{edge}, true);
    FilterChain chain;
    for (std::size_t i = 0; i < poles; ++i) {
      chain.add_pole(Picoseconds{tau});
    }
    RenderConfig config;
    config.levels = PeclLevels{Millivolts{1000.0}, Millivolts{0.0}};
    config.sample_step = Picoseconds{dt};
    CrossingRecorder crossings(Millivolts{500.0});
    render(s, chain, config, Picoseconds{0.0}, Picoseconds{2000.0},
           {&crossings});
    ASSERT_EQ(crossings.crossings().size(), 1u);
    EXPECT_TRUE(crossings.crossings()[0].rising);
    const double delay = crossings.crossings()[0].time.ps() - edge;
    EXPECT_NEAR(delay, expected, 0.02) << "edge phase " << phase << "/8";
    min_delay = std::min(min_delay, delay);
    max_delay = std::max(max_delay, delay);
  }
  EXPECT_LT(max_delay - min_delay, 0.005);  // under 5 fs
}

INSTANTIATE_TEST_SUITE_P(
    Poles, RenderPoles, ::testing::Range<std::size_t>(1, 9),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::to_string(info.param);
    });

TEST(Render, TransitionsWithinOneSampleStepAreExact) {
  // An edge at a non-grid time must not be quantized to the grid.
  EdgeStream s(false);
  s.push(Picoseconds{1000.37}, true);
  FilterChain chain;
  chain.add_pole(Picoseconds{30.0});
  RenderConfig config;
  config.levels = PeclLevels{Millivolts{1000.0}, Millivolts{0.0}};
  config.sample_step = Picoseconds{2.0};  // coarse grid
  CrossingRecorder crossings(Millivolts{500.0});
  render(s, chain, config, Picoseconds{0.0}, Picoseconds{2000.0},
         {&crossings});
  ASSERT_EQ(crossings.crossings().size(), 1u);
  EXPECT_NEAR(crossings.crossings()[0].time.ps(),
              1000.37 + 30.0 * std::log(2.0), 0.1);
}

TEST(Render, EmptyWindowThrows) {
  EdgeStream s(false);
  FilterChain chain;
  RenderConfig config;
  EXPECT_THROW(render(s, chain, config, Picoseconds{10.0}, Picoseconds{10.0},
                      {}),
               Error);
}

// ---------------------------------------------------------------- sinks --

TEST(Sinks, WaveformTraceDecimates) {
  WaveformTrace trace(10);
  for (int i = 0; i < 100; ++i) {
    trace.on_sample(Picoseconds{static_cast<double>(i)}, Millivolts{0.0});
  }
  EXPECT_EQ(trace.size(), 10u);
}

TEST(Sinks, StrobeSamplerCapturesPattern) {
  const auto bits = BitVector::from_string("1011001110001011");
  const Picoseconds ui{200.0};
  const auto s = EdgeStream::from_bits(bits, ui);
  FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{40.0});

  std::vector<Picoseconds> strobes;
  for (std::size_t k = 1; k + 1 < bits.size(); ++k) {
    // Center of bit k plus the chain's group delay.
    strobes.push_back(Picoseconds{(static_cast<double>(k) + 0.5) * 200.0 +
                                  chain.group_delay().ps()});
  }
  StrobeSampler::Config config;
  config.threshold = Millivolts{2000.0};
  StrobeSampler sampler(strobes, config, Rng(4));

  RenderConfig render_config;
  render_config.levels = PeclLevels{Millivolts{2400.0}, Millivolts{1600.0}};
  render(s, chain, render_config, Picoseconds{0.0},
         Picoseconds{200.0 * 17.0}, {&sampler});

  EXPECT_EQ(sampler.missed(), 0u);
  for (std::size_t k = 1; k + 1 < bits.size(); ++k) {
    EXPECT_EQ(sampler.bits().get(k - 1), bits.get(k)) << "bit " << k;
  }
}

TEST(Sinks, StrobeSamplerRequiresSortedStrobes) {
  StrobeSampler::Config config;
  EXPECT_THROW(StrobeSampler({Picoseconds{10.0}, Picoseconds{5.0}}, config,
                             Rng(1)),
               Error);
}

TEST(Sinks, StrobeSamplerMissedStrobesAreCounted) {
  StrobeSampler::Config config;
  StrobeSampler sampler({Picoseconds{5000.0}}, config, Rng(1));
  sampler.on_sample(Picoseconds{0.0}, Millivolts{0.0});
  sampler.on_sample(Picoseconds{1.0}, Millivolts{0.0});
  sampler.finish();
  EXPECT_EQ(sampler.missed(), 1u);
}

TEST(Sinks, CrossingRecorderInterpolates) {
  CrossingRecorder recorder(Millivolts{500.0});
  recorder.on_sample(Picoseconds{0.0}, Millivolts{0.0});
  recorder.on_sample(Picoseconds{10.0}, Millivolts{1000.0});
  ASSERT_EQ(recorder.crossings().size(), 1u);
  EXPECT_NEAR(recorder.crossings()[0].time.ps(), 5.0, 1e-9);
  EXPECT_TRUE(recorder.crossings()[0].rising);
}

// --------------------------------------------------------------- levels --

TEST(Levels, DerivedQuantities) {
  const PeclLevels levels{Millivolts{2400.0}, Millivolts{1600.0}};
  EXPECT_DOUBLE_EQ(levels.swing().mv(), 800.0);
  EXPECT_DOUBLE_EQ(levels.midpoint().mv(), 2000.0);
  EXPECT_DOUBLE_EQ(levels.at_fraction(0.2).mv(), 1760.0);
}

TEST(Levels, Adjustments) {
  const PeclLevels levels{Millivolts{2400.0}, Millivolts{1600.0}};
  EXPECT_DOUBLE_EQ(levels.with_voh(Millivolts{2300.0}).voh.mv(), 2300.0);
  const auto swung = levels.with_swing(Millivolts{400.0});
  EXPECT_DOUBLE_EQ(swung.swing().mv(), 400.0);
  EXPECT_DOUBLE_EQ(swung.midpoint().mv(), 2000.0);
  const auto moved = levels.with_midpoint(Millivolts{1800.0});
  EXPECT_DOUBLE_EQ(moved.midpoint().mv(), 1800.0);
  EXPECT_DOUBLE_EQ(moved.swing().mv(), 800.0);
  EXPECT_THROW((void)levels.with_voh(Millivolts{1500.0}), Error);
  EXPECT_THROW((void)levels.with_swing(Millivolts{-10.0}), Error);
}

TEST(Levels, Attenuated) {
  const PeclLevels levels{Millivolts{2400.0}, Millivolts{1600.0}};
  const auto att = attenuated(levels, 0.5);
  EXPECT_DOUBLE_EQ(att.swing().mv(), 400.0);
  EXPECT_DOUBLE_EQ(att.midpoint().mv(), 2000.0);
}

// -------------------------------------------------------------- channel --

TEST(Channel, PresetsAreValid) {
  for (const auto& channel :
       {Channel::ideal(), Channel::sma_cable(), Channel::compliant_lead(),
        Channel::interposer_trace()}) {
    EXPECT_GT(channel.config().gain, 0.0);
    EXPECT_LE(channel.config().gain, 1.0);
    EXPECT_GE(channel.config().delay.ps(), 0.0);
  }
}

TEST(Channel, PropagateShiftsEdges) {
  const auto s = EdgeStream::from_bits(BitVector::from_string("01"),
                                       Picoseconds{100.0});
  const auto out = Channel::sma_cable().propagate(s);
  EXPECT_DOUBLE_EQ(out.transitions()[0].time.ps(),
                   100.0 + Channel::sma_cable().config().delay.ps());
}

TEST(Channel, ContributeAddsPolesAndGain) {
  FilterChain chain;
  Channel::compliant_lead().contribute(chain, Millivolts{2000.0});
  EXPECT_EQ(chain.pole_count(), 1u);
  EXPECT_LT(chain.gain(), 1.0);
}

TEST(Channel, InvalidGainThrows) {
  Channel::Config config;
  config.gain = 1.5;
  EXPECT_THROW(Channel{config}, Error);
  config.gain = 0.0;
  EXPECT_THROW(Channel{config}, Error);
}

TEST(Channel, PoleCountAboveCapThrows) {
  Channel::Config config;
  config.rise_2080 = Picoseconds{30.0};
  config.pole_count = 8;
  EXPECT_NO_THROW(Channel{config});
  config.pole_count = 9;
  EXPECT_THROW(Channel{config}, Error);
}

}  // namespace
}  // namespace mgt::sig
