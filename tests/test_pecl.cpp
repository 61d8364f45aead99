// Unit tests for src/pecl: clock source, fanout, delay lines,
// serializer trees, output buffers, and the sampling circuit.
#include <gtest/gtest.h>

#include <cmath>

#include "pecl/buffer.hpp"
#include "pecl/clocksource.hpp"
#include "pecl/delayline.hpp"
#include "pecl/fanout.hpp"
#include "pecl/mux.hpp"
#include "pecl/sampler.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace mgt::pecl {
namespace {

using mgt::BitVector;
using mgt::Error;
using mgt::Rng;
using mgt::RunningStats;

// ----------------------------------------------------------- ClockSource --

TEST(ClockSource, FrequencyRangeEnforced) {
  ClockSource::Config config;
  config.frequency = Gigahertz{1.25};
  ClockSource clock(config, Rng(1));
  EXPECT_NO_THROW(clock.set_frequency(Gigahertz{2.5}));
  EXPECT_NO_THROW(clock.set_frequency(Gigahertz{0.5}));
  EXPECT_THROW(clock.set_frequency(Gigahertz{3.0}), Error);
  EXPECT_THROW(clock.set_frequency(Gigahertz{0.1}), Error);
}

TEST(ClockSource, PeriodAndGrid) {
  ClockSource::Config config;
  config.frequency = Gigahertz{1.25};
  ClockSource clock(config, Rng(2));
  EXPECT_DOUBLE_EQ(clock.period().ps(), 800.0);
  const auto grid = clock.rising_edge_grid(3, Picoseconds{100.0});
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_DOUBLE_EQ(grid[0].ps(), 100.0);
  EXPECT_DOUBLE_EQ(grid[2].ps(), 1700.0);
}

TEST(ClockSource, JitterSigmaIsRealized) {
  ClockSource::Config config;
  config.frequency = Gigahertz{1.0};
  config.rj_sigma = Picoseconds{2.0};
  ClockSource clock(config, Rng(3));
  const auto edges = clock.generate(20000);
  RunningStats deviation;
  std::size_t k = 0;
  for (const auto& tr : edges.transitions()) {
    const double nominal = static_cast<double>(k) * 500.0;
    deviation.add(tr.time.ps() - nominal);
    ++k;
  }
  EXPECT_NEAR(deviation.stddev(), 2.0, 0.1);
}

TEST(ClockSource, ZeroJitterIsExact) {
  ClockSource::Config config;
  config.frequency = Gigahertz{1.0};
  config.rj_sigma = Picoseconds{0.0};
  ClockSource clock(config, Rng(4));
  const auto edges = clock.generate(10);
  EXPECT_DOUBLE_EQ(edges.transitions()[3].time.ps(), 1500.0);
}

// --------------------------------------------------------------- fanout --

TEST(Fanout, SkewIsFixedPerOutput) {
  ClockFanout::Config config;
  config.outputs = 4;
  config.skew_pp = Picoseconds{8.0};
  config.rj_sigma = Picoseconds{0.0};
  ClockFanout fanout(config, Rng(5));
  const auto clk = sig::EdgeStream::clock(Picoseconds{800.0}, 10);
  for (std::size_t out = 0; out < 4; ++out) {
    const auto driven = fanout.drive(clk, out);
    EXPECT_LE(std::abs(fanout.skew_of(out).ps()), 4.0);
    // Every edge shifted by exactly prop_delay + skew.
    const double expected =
        config.prop_delay.ps() + fanout.skew_of(out).ps();
    for (std::size_t i = 0; i < clk.size(); ++i) {
      EXPECT_NEAR(driven.transitions()[i].time.ps() -
                      clk.transitions()[i].time.ps(),
                  expected, 1e-9);
    }
  }
  EXPECT_THROW(fanout.drive(clk, 4), Error);
}

// ------------------------------------------------------------ delayline --

TEST(DelayLine, ProgrammedVsActualWithinAccuracy) {
  // The headline spec: 10 ps resolution, ~+-25 ps accuracy (Sections 1, 4).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ProgrammableDelay delay(ProgrammableDelay::Config{}, Rng(seed));
    EXPECT_LE(delay.worst_case_error().ps(), 25.0) << "part " << seed;
    EXPECT_GT(delay.worst_case_error().ps(), 1.0);  // real parts aren't ideal
  }
}

TEST(DelayLine, CodeZeroIsCalibrationReference) {
  // actual_delay is documented relative to code 0: exactly zero there, with
  // the part's fixed insertion-delay error reported separately.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ProgrammableDelay stepped(ProgrammableDelay::Config{}, Rng(seed));
    EXPECT_EQ(stepped.actual_delay(0).ps(), 0.0) << "part " << seed;
    EXPECT_LE(std::abs(stepped.insertion_offset().ps()),
              stepped.config().offset_error.ps());

    ProgrammableDelay::Config vconfig;
    vconfig.mode = TimingMode::kVernier;
    ProgrammableDelay vernier(vconfig, Rng(seed));
    EXPECT_EQ(vernier.actual_delay(0).ps(), 0.0) << "part " << seed;
  }
}

TEST(DelayLine, TenPicosecondResolutionRealized) {
  ProgrammableDelay delay(ProgrammableDelay::Config{}, Rng(7));
  std::vector<double> codes;
  std::vector<Picoseconds> delays;
  for (std::size_t c = 0; c < delay.code_count(); c += 16) {
    codes.push_back(static_cast<double>(c));
    delays.push_back(delay.actual_delay(c));
  }
  // Linear fit: step within 1 % of 10 ps/code.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    sx += codes[i];
    sy += delays[i].ps();
    sxx += codes[i] * codes[i];
    sxy += codes[i] * delays[i].ps();
  }
  const double n = static_cast<double>(codes.size());
  const double gain = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(gain, 10.0, 0.1);
}

TEST(DelayLine, FullRangeCoversTenNanoseconds) {
  ProgrammableDelay delay(ProgrammableDelay::Config{}, Rng(8));
  EXPECT_NEAR(delay.full_range().ns(), 10.23, 0.01);
}

TEST(DelayLine, ApplyShiftsEdges) {
  ProgrammableDelay::Config config;
  config.rj_sigma = Picoseconds{0.0};
  ProgrammableDelay delay(config, Rng(9));
  delay.set_code(100);
  const auto in = sig::EdgeStream::clock(Picoseconds{800.0}, 4);
  const auto out = delay.apply(in);
  const double shift =
      out.transitions()[0].time.ps() - in.transitions()[0].time.ps();
  EXPECT_NEAR(shift,
              ProgrammableDelay::kInsertionDelay.ps() + delay.insertion_offset().ps() +
                  delay.actual_delay(100).ps(),
              1e-9);
  // Same shift on every edge (deterministic part).
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out.transitions()[i].time.ps() -
                    in.transitions()[i].time.ps(),
                shift, 1e-9);
  }
}

TEST(DelayLine, CodeRangeEnforced) {
  ProgrammableDelay delay(ProgrammableDelay::Config{}, Rng(10));
  EXPECT_THROW(delay.set_code(delay.code_count()), Error);
  EXPECT_THROW((void)delay.actual_delay(delay.code_count()), Error);
}

TEST(DelayLine, InstancesDiffer) {
  ProgrammableDelay a(ProgrammableDelay::Config{}, Rng(11));
  ProgrammableDelay b(ProgrammableDelay::Config{}, Rng(12));
  EXPECT_NE(a.actual_delay(500).ps(), b.actual_delay(500).ps());
}

// ------------------------------------------------------------------ mux --

TEST(SerializerTree, LaneCounts) {
  SerializerTree testbed(SerializerTree::testbed_8to1(), Rng(13));
  EXPECT_EQ(testbed.total_lanes(), 8u);
  SerializerTree mini(SerializerTree::minitester_16to1(), Rng(14));
  EXPECT_EQ(mini.total_lanes(), 16u);
}

TEST(SerializerTree, DistributeInterleaveRoundTrip) {
  SerializerTree tree(SerializerTree::minitester_16to1(), Rng(15));
  Rng rng(16);
  const auto serial = BitVector::random(1600, rng);
  const auto lanes = serial.deinterleave(tree.total_lanes());
  ASSERT_EQ(lanes.size(), 16u);
  EXPECT_EQ(BitVector::interleave(lanes), serial);
}

TEST(SerializerTree, SerializedBitsRecoverable) {
  SerializerTree tree(SerializerTree::testbed_8to1(), Rng(17));
  Rng rng(18);
  const auto bits = BitVector::random(4096, rng);
  const auto edges = tree.serialize(bits, GbitsPerSec{2.5});
  EXPECT_TRUE(edges.well_formed());
  // Sampling at bit centers (offset by the tree's propagation delay)
  // recovers the data: jitter+skew are far below UI/2.
  EXPECT_EQ(edges.to_bits(4096, Picoseconds{400.0}, tree.total_prop_delay()),
            bits);
}

TEST(SerializerTree, SkewProfilePeriodicInLaneCount) {
  SerializerTree tree(SerializerTree::minitester_16to1(), Rng(19));
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_DOUBLE_EQ(tree.skew_for_bit(k).ps(),
                     tree.skew_for_bit(k + 16).ps());
  }
}

TEST(SerializerTree, SkewBoundedByConfig) {
  const auto config = SerializerTree::minitester_16to1();
  SerializerTree tree(config, Rng(20));
  double bound = 0.0;
  for (const auto& stage : config.stages) {
    bound += stage.skew_pp.ps();  // worst case: extremes add
  }
  EXPECT_LE(tree.skew_profile_pp().ps(), bound);
  EXPECT_GT(tree.skew_profile_pp().ps(), 0.0);
}

TEST(SerializerTree, TotalRjIsRssOfStages) {
  SerializerTree::Config config;
  config.clock_rj_sigma = Picoseconds{3.0};
  config.stages = {MuxStage{.fan_in = 2, .rj_sigma = Picoseconds{4.0}}};
  SerializerTree tree(config, Rng(21));
  EXPECT_NEAR(tree.total_rj_sigma().ps(), 5.0, 1e-9);  // 3-4-5 triangle
}

TEST(SerializerTree, InvalidConfigThrows) {
  SerializerTree::Config empty;
  EXPECT_THROW(SerializerTree(empty, Rng(22)), Error);
  SerializerTree::Config bad;
  bad.stages = {MuxStage{.fan_in = 1}};
  EXPECT_THROW(SerializerTree(bad, Rng(23)), Error);
}

TEST(SerializerTree, BuildersValidateStageLists) {
  EXPECT_THROW(SerializerTree::from_fan_ins({}), Error);
  EXPECT_THROW(SerializerTree::from_fan_ins({1}), Error);        // too narrow
  EXPECT_THROW(SerializerTree::from_fan_ins({65}), Error);       // too wide
  EXPECT_THROW(SerializerTree::from_fan_ins({2, 2, 2, 2, 2, 2, 2}),
               Error);                                           // too deep
  EXPECT_THROW(SerializerTree::from_fan_ins({64, 64, 2}), Error);  // lanes
  EXPECT_THROW(SerializerTree::stage_for_fan_in(4, -1.0), Error);
  EXPECT_NO_THROW(SerializerTree::from_fan_ins({64, 64}));  // exactly 4096
}

TEST(SerializerTree, BuilderMatchesPresetFamily) {
  // The parameterized part family reproduces the known presets' shape:
  // the 32-lane extension tree and a single-stage 16:1.
  const auto ext = SerializerTree::extension_32lane();
  ASSERT_EQ(ext.stages.size(), 2u);
  EXPECT_EQ(ext.stages[0].fan_in, 4u);
  EXPECT_EQ(ext.stages[1].fan_in, 8u);
  SerializerTree ext_tree(ext, Rng(24));
  EXPECT_EQ(ext_tree.total_lanes(), 32u);

  const auto flat = SerializerTree::serializer_16to1();
  ASSERT_EQ(flat.stages.size(), 1u);
  EXPECT_EQ(flat.stages[0].fan_in, 16u);

  // skew_scale stresses only the deterministic skew, linearly.
  const auto nominal = SerializerTree::stage_for_fan_in(8);
  const auto stressed = SerializerTree::stage_for_fan_in(8, 2.0);
  EXPECT_DOUBLE_EQ(stressed.skew_pp.ps(), 2.0 * nominal.skew_pp.ps());
  EXPECT_DOUBLE_EQ(stressed.rj_sigma.ps(), nominal.rj_sigma.ps());
  EXPECT_DOUBLE_EQ(stressed.prop_delay.ps(), nominal.prop_delay.ps());
}

TEST(SerializerTree, MixedRadixLaneAndSkewConsistency) {
  // Non-uniform trees: a 4:1 + 8:1 and a three-stage 2:1 + 4:1 + 8:1.
  for (const auto& fan_ins :
       {std::vector<std::size_t>{4, 8}, std::vector<std::size_t>{2, 4, 8}}) {
    SerializerTree tree(SerializerTree::from_fan_ins(fan_ins), Rng(40));
    const std::size_t lanes = tree.total_lanes();
    const std::size_t final_fan = fan_ins.front();
    for (std::size_t k = 0; k < 3 * lanes; ++k) {
      // The lane map is the serial index modulo the lane count, and skew is
      // a pure function of the lane.
      EXPECT_EQ(tree.lane_for_bit(k), k % lanes);
      EXPECT_DOUBLE_EQ(tree.skew_for_bit(k).ps(),
                       tree.skew_for_bit(k % lanes).ps());
    }
    // Mixed-radix decomposition: skews of the stages add independently, so
    // skew(a + F*b) == skew(a) + skew(F*b) - skew(0) with F the final
    // stage's fan-in (input a on the final stage, b on the inner tree).
    for (std::size_t a = 0; a < final_fan; ++a) {
      for (std::size_t b = 0; b < lanes / final_fan; ++b) {
        EXPECT_NEAR(tree.skew_for_bit(a + final_fan * b).ps(),
                    tree.skew_for_bit(a).ps() +
                        tree.skew_for_bit(final_fan * b).ps() -
                        tree.skew_for_bit(0).ps(),
                    1e-12);
      }
    }
  }
}

TEST(SerializerTree, MixedRadixSerializeDistributeRoundTrip) {
  for (const auto& fan_ins :
       {std::vector<std::size_t>{4, 8}, std::vector<std::size_t>{2, 4, 8}}) {
    SerializerTree tree(SerializerTree::from_fan_ins(fan_ins), Rng(41));
    const std::size_t lanes = tree.total_lanes();
    Rng rng(42);
    const auto serial = BitVector::random(lanes * 24, rng);

    const auto per_lane = serial.deinterleave(lanes);
    ASSERT_EQ(per_lane.size(), lanes);
    EXPECT_EQ(BitVector::interleave(per_lane), serial);

    const auto edges = tree.serialize(serial, GbitsPerSec{2.5});
    EXPECT_TRUE(edges.well_formed());
    EXPECT_EQ(edges.to_bits(serial.size(), Picoseconds{400.0},
                            tree.total_prop_delay()),
              serial);
  }
}

TEST(SerializerTree, DropoutOnBitZeroHoldsInitialLevel) {
  // Regression: a dropout active from serial bit 0 must hold the stream's
  // initial level (EdgeStream::from_bits seeds it from bit 0's own value),
  // not force a hard zero.
  SerializerTree::Config config;
  config.stages = {MuxStage{.fan_in = 2,
                            .skew_pp = Picoseconds{0.0},
                            .rj_sigma = Picoseconds{0.0},
                            .prop_delay = Picoseconds{0.0}}};
  config.clock_rj_sigma = Picoseconds{0.0};

  fault::FaultPlan plan(7);
  plan.schedule({.kind = fault::FaultKind::kMuxDropout,
                 .component = "serializer",
                 .index = 0,
                 .start = 0});

  // All-ones data, lane 0 dropped out from bit 0: every held value is 1,
  // so the stream must come back unchanged (pre-fix, bit 0 flipped to 0).
  SerializerTree tree(config, Rng(43));
  tree.set_faults(plan.component("serializer"));
  const auto ones = BitVector::from_string("11111111");
  const auto edges = tree.serialize(ones, GbitsPerSec{2.5});
  EXPECT_EQ(edges.to_bits(ones.size(), Picoseconds{400.0},
                          tree.total_prop_delay()),
            ones);

  // Full-bus dropout on alternating data starting with 1: every bit holds
  // the value before it, which collapses the stream to the initial level.
  fault::FaultPlan all_plan(8);
  all_plan.schedule({.kind = fault::FaultKind::kMuxDropout,
                     .component = "serializer",
                     .index = fault::FaultSpec::kAllIndices,
                     .severity = 1.0,
                     .start = 0});
  SerializerTree held(config, Rng(44));
  held.set_faults(all_plan.component("serializer"));
  const auto alternating = BitVector::from_string("10101010");
  const auto held_edges = held.serialize(alternating, GbitsPerSec{2.5});
  EXPECT_EQ(held_edges.to_bits(alternating.size(), Picoseconds{400.0},
                               held.total_prop_delay()),
            BitVector::from_string("11111111"));
}

// ---------------------------------------------------------------- buffer --

TEST(OutputBuffer, DacSnapsToGrid) {
  OutputBuffer buffer(OutputBuffer::Config{}, Rng(24));
  buffer.set_voh(Millivolts{2309.0});
  EXPECT_DOUBLE_EQ(buffer.levels().voh.mv(), 2300.0);  // 20 mV grid
  buffer.set_vol(Millivolts{1611.0});
  EXPECT_DOUBLE_EQ(buffer.levels().vol.mv(), 1620.0);
}

TEST(OutputBuffer, Fig10StyleVohSteps) {
  OutputBuffer buffer(OutputBuffer::Config{}, Rng(25));
  const double start = buffer.levels().voh.mv();
  for (int step = 1; step <= 3; ++step) {
    buffer.set_voh(Millivolts{start - 100.0 * step});
    EXPECT_DOUBLE_EQ(buffer.levels().voh.mv(), start - 100.0 * step);
  }
}

TEST(OutputBuffer, Fig11StyleSwingSteps) {
  OutputBuffer buffer(OutputBuffer::Config{}, Rng(26));
  const double mid = buffer.levels().midpoint().mv();
  for (double swing : {800.0, 600.0, 400.0, 200.0}) {
    buffer.set_swing(Millivolts{swing});
    EXPECT_NEAR(buffer.levels().swing().mv(), swing, 1e-9);
    EXPECT_NEAR(buffer.levels().midpoint().mv(), mid, 1e-9);
  }
}

TEST(OutputBuffer, MidpointMove) {
  OutputBuffer buffer(OutputBuffer::Config{}, Rng(27));
  buffer.set_midpoint(Millivolts{1800.0});
  EXPECT_NEAR(buffer.levels().midpoint().mv(), 1800.0, 10.0);
}

TEST(OutputBuffer, ComplianceRangeEnforced) {
  OutputBuffer buffer(OutputBuffer::Config{}, Rng(28));
  EXPECT_THROW(buffer.set_voh(Millivolts{3500.0}), Error);
  EXPECT_THROW(buffer.set_vol(Millivolts{500.0}), Error);
}

TEST(OutputBuffer, ApplyAddsDelayAndJitter) {
  OutputBuffer::Config config;
  config.rj_sigma = Picoseconds{2.0};
  OutputBuffer buffer(config, Rng(29));
  const auto in = sig::EdgeStream::clock(Picoseconds{800.0}, 5000);
  const auto out = buffer.apply(in);
  RunningStats deviation;
  for (std::size_t i = 0; i < in.size(); ++i) {
    deviation.add(out.transitions()[i].time.ps() -
                  in.transitions()[i].time.ps());
  }
  EXPECT_NEAR(deviation.mean(), config.prop_delay.ps(), 0.2);
  EXPECT_NEAR(deviation.stddev(), 2.0, 0.2);
}

TEST(OutputBuffer, ChainHasConfiguredPoles) {
  OutputBuffer::Config config;
  config.pole_count = 2;
  OutputBuffer buffer(config, Rng(30));
  EXPECT_EQ(buffer.make_chain().pole_count(), 2u);
  EXPECT_NEAR(buffer.realized_rise_2080().ps(), config.rise_2080.ps(), 1.0);
}

TEST(OutputBuffer, PoleCountAboveCapThrows) {
  OutputBuffer::Config config;
  config.pole_count = 8;
  EXPECT_NO_THROW(OutputBuffer(config, Rng(31)));
  config.pole_count = 9;
  EXPECT_THROW(OutputBuffer(config, Rng(31)), Error);
}

// --------------------------------------------------------------- sampler --

TEST(Sampler, StrobeSchedule) {
  const auto strobes = PeclSampler::strobe_schedule(Picoseconds{100.0},
                                                    Picoseconds{200.0}, 4);
  ASSERT_EQ(strobes.size(), 4u);
  EXPECT_DOUBLE_EQ(strobes[0].ps(), 100.0);
  EXPECT_DOUBLE_EQ(strobes[3].ps(), 700.0);
}

TEST(Sampler, CapturesKnownPattern) {
  PeclSampler::Config config;
  config.threshold = Millivolts{2000.0};
  config.strobe_rj_sigma = Picoseconds{0.0};
  config.aperture = Picoseconds{0.0};
  PeclSampler sampler(config, Rng(31));

  const auto bits = BitVector::from_string("1100101001110100");
  const Picoseconds ui{200.0};
  const auto edges = sig::EdgeStream::from_bits(bits, ui);
  sig::FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{40.0});
  const sig::PeclLevels levels{Millivolts{2400.0}, Millivolts{1600.0}};

  const auto strobes = PeclSampler::strobe_schedule(
      Picoseconds{100.0 + chain.group_delay().ps()}, ui, bits.size());
  const auto capture = sampler.capture(edges, chain, levels, strobes);
  EXPECT_EQ(capture.bits, bits);
  ASSERT_EQ(capture.analog.size(), bits.size());
  EXPECT_GT(capture.analog[0].mv(), 2300.0);  // settled high
}

TEST(Sampler, ApertureCausesMetastabilityOnEdges) {
  PeclSampler::Config config;
  config.aperture = Picoseconds{20.0};
  config.strobe_rj_sigma = Picoseconds{0.0};
  PeclSampler sampler(config, Rng(32));

  // Strobe exactly on the data edges: captures must be a random mix.
  const auto bits = BitVector::alternating(2000);
  const Picoseconds ui{200.0};
  const auto edges = sig::EdgeStream::from_bits(bits, ui);
  sig::FilterChain chain;
  chain.add_pole_rise_2080(Picoseconds{40.0});
  const sig::PeclLevels levels{Millivolts{2400.0}, Millivolts{1600.0}};

  // Group delay puts the 50 % point near tau*ln2 after the boundary.
  const auto strobes = PeclSampler::strobe_schedule(
      Picoseconds{200.0 + chain.group_delay().ps() * std::log(2.0)}, ui,
      bits.size() - 2);
  const auto capture = sampler.capture(edges, chain, levels, strobes);
  const double ones = static_cast<double>(capture.bits.popcount()) /
                      static_cast<double>(capture.bits.size());
  EXPECT_GT(ones, 0.15);
  EXPECT_LT(ones, 0.85);
}

TEST(Sampler, EmptyStrobesThrow) {
  PeclSampler sampler(PeclSampler::Config{}, Rng(33));
  sig::FilterChain chain;
  EXPECT_THROW(sampler.capture(sig::EdgeStream{false}, chain,
                               sig::PeclLevels{}, {}),
               Error);
}

}  // namespace
}  // namespace mgt::pecl
