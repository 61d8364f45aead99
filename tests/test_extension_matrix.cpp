// The 10G+ extension matrix suite (ctest label `extension`): the vernier
// sub-picosecond timing mode, the stepped default the figures depend on,
// the parameterized mux-tree builders behind the scenario shmoo, the scenario
// monotonicity checks, and the golden-pin byte-identity guarantees the
// matrix bench (bench_extension_10gbps) relies on: MGT_THREADS 0/1/8,
// empty fault plans, and vernier == stepped at exactly coinciding codes.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "analysis/faultsweep.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/minitester.hpp"
#include "pecl/delayline.hpp"
#include "pecl/sampler.hpp"
#include "pecl/vernier.hpp"
#include "util/parallel.hpp"

namespace mgt {
namespace {

// ----------------------------------------------------------- TimingMode --

TEST(TimingMode, PresetCarriesRequestedMode) {
  EXPECT_EQ(core::presets::strobe_delay(pecl::TimingMode::kStepped).mode,
            pecl::TimingMode::kStepped);
  EXPECT_EQ(core::presets::strobe_delay(pecl::TimingMode::kVernier).mode,
            pecl::TimingMode::kVernier);
  // Every figure runs the paper's stepped delay line unless a call site
  // asks for the vernier.
  EXPECT_EQ(core::presets::strobe_delay().mode, pecl::TimingMode::kStepped);
  EXPECT_EQ(minitester::MiniTester::Config{}.strobe_delay.mode,
            pecl::TimingMode::kStepped);
  // The names bench_extension_10gbps prints in its table.
  EXPECT_EQ(pecl::to_string(pecl::TimingMode::kStepped), "stepped");
  EXPECT_EQ(pecl::to_string(pecl::TimingMode::kVernier), "vernier");
}

// ------------------------------------------------------ VernierTimebase --

TEST(VernierTimebase, SubPicosecondStepAndRange) {
  const pecl::VernierTimebase vernier({}, Rng(1));
  EXPECT_LT(vernier.step().ps(), 1.0);  // below any physical tap pitch
  EXPECT_DOUBLE_EQ(vernier.step().ps(), 0.67);
  // 16384 codes at 0.67 ps cover the stepped lines' ~10 ns range.
  EXPECT_GT(static_cast<double>(vernier.code_count() - 1) *
                vernier.step().ps(),
            10000.0);
  // The detuned clock is one beat step short of the main period.
  EXPECT_DOUBLE_EQ(vernier.vernier_period().ps(),
                   vernier.config().main_clock.period().ps() - 0.67);
  EXPECT_EQ(vernier.codes_per_beat(),
            static_cast<std::size_t>(
                std::floor(vernier.config().main_clock.period().ps() / 0.67)));
}

TEST(VernierTimebase, CodeZeroIsCoincidence) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const pecl::VernierTimebase vernier({}, Rng(seed));
    EXPECT_EQ(vernier.actual_delay(0).ps(), 0.0) << "part " << seed;
    EXPECT_EQ(vernier.programmed_delay(0).ps(), 0.0);
  }
}

TEST(VernierTimebase, ProgrammedDelayIsLinearInCode) {
  const pecl::VernierTimebase vernier({}, Rng(2));
  for (const std::size_t code : {std::size_t{1}, std::size_t{100},
                                 std::size_t{4096}, std::size_t{16383}}) {
    EXPECT_DOUBLE_EQ(vernier.programmed_delay(code).ps(),
                     static_cast<double>(code) * 0.67);
  }
}

TEST(VernierTimebase, WorstCaseErrorWithinModelBounds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    pecl::VernierTimebase::Config config;
    const pecl::VernierTimebase vernier(config, Rng(seed));
    const double range =
        static_cast<double>(config.code_count - 1) * config.step.ps();
    // Gain error is bounded by the ratio error over the full range; the
    // accumulated walk is clamped to walk_bound.
    const double bound =
        config.ratio_error * range + config.walk_bound.ps() + 1e-9;
    EXPECT_LE(vernier.worst_case_error().ps(), bound) << "part " << seed;
    EXPECT_GT(vernier.worst_case_error().ps(), 0.0);  // real PLLs, not ideal
    // Far better than the stepped parts' ~25 ps placement accuracy.
    EXPECT_LT(vernier.worst_case_error().ps(), 25.0);
  }
}

TEST(VernierTimebase, ErrorFreeConfigIsExact) {
  pecl::VernierTimebase::Config config;
  config.ratio_error = 0.0;
  config.walk_sigma = Picoseconds{0.0};
  config.walk_bound = Picoseconds{0.0};
  const pecl::VernierTimebase vernier(config, Rng(3));
  EXPECT_EQ(vernier.worst_case_error().ps(), 0.0);
  EXPECT_EQ(vernier.actual_delay(12345).ps(),
            vernier.programmed_delay(12345).ps());
}

TEST(VernierTimebase, InstancesDiffer) {
  const pecl::VernierTimebase a({}, Rng(4));
  const pecl::VernierTimebase b({}, Rng(5));
  EXPECT_NE(a.actual_delay(8000).ps(), b.actual_delay(8000).ps());
}

TEST(VernierTimebase, InvalidConfigThrows) {
  pecl::VernierTimebase::Config bad;
  bad.step = Picoseconds{0.0};
  EXPECT_THROW(pecl::VernierTimebase(bad, Rng(6)), Error);
  bad = {};
  bad.code_count = 1;
  EXPECT_THROW(pecl::VernierTimebase(bad, Rng(7)), Error);
  bad = {};
  bad.step = Picoseconds{500.0};  // not far below the 800 ps main period
  EXPECT_THROW(pecl::VernierTimebase(bad, Rng(8)), Error);
  bad = {};
  bad.ratio_error = -1e-6;
  EXPECT_THROW(pecl::VernierTimebase(bad, Rng(9)), Error);
}

// ---------------------------------------------- ProgrammableDelay modes --

TEST(VernierDelayLine, ModeSelectsStepAndCodeCount) {
  pecl::ProgrammableDelay::Config config;
  config.mode = pecl::TimingMode::kVernier;
  pecl::ProgrammableDelay delay(config, Rng(10));
  EXPECT_EQ(delay.mode(), pecl::TimingMode::kVernier);
  EXPECT_DOUBLE_EQ(delay.step().ps(), 0.67);
  EXPECT_EQ(delay.code_count(), 16384u);
  EXPECT_NEAR(delay.full_range().ns(), 10.98, 0.01);
  EXPECT_THROW(delay.set_code(16384), Error);
  EXPECT_NO_THROW(delay.set_code(16383));

  pecl::ProgrammableDelay stepped(pecl::ProgrammableDelay::Config{}, Rng(10));
  EXPECT_EQ(stepped.mode(), pecl::TimingMode::kStepped);
  EXPECT_DOUBLE_EQ(stepped.step().ps(), 10.0);
  EXPECT_EQ(stepped.code_count(), 1024u);
}

TEST(VernierDelayLine, ApplyShiftsEdgesLikeStepped) {
  pecl::ProgrammableDelay::Config config;
  config.mode = pecl::TimingMode::kVernier;
  config.rj_sigma = Picoseconds{0.0};
  pecl::ProgrammableDelay delay(config, Rng(11));
  delay.set_code(1000);
  const auto in = sig::EdgeStream::clock(Picoseconds{800.0}, 4);
  const auto out = delay.apply(in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out.transitions()[i].time.ps() - in.transitions()[i].time.ps(),
                config.insertion_delay.ps() + delay.insertion_offset().ps() +
                    delay.actual_delay(1000).ps(),
                1e-9);
  }
}

TEST(VernierDelayLine, SteppedInstancesUnchangedByVernierSupport) {
  // The vernier branch must not disturb the stepped draw order: a stepped
  // part seeded identically before and after this feature realizes the
  // same error profile (golden results depend on it).
  pecl::ProgrammableDelay a(pecl::ProgrammableDelay::Config{}, Rng(12));
  pecl::ProgrammableDelay b(pecl::ProgrammableDelay::Config{}, Rng(12));
  for (std::size_t code = 0; code < a.code_count(); code += 97) {
    EXPECT_EQ(a.actual_delay(code).ps(), b.actual_delay(code).ps());
  }
  EXPECT_EQ(a.insertion_offset().ps(), b.insertion_offset().ps());
}

/// Error-free stepped/vernier configs whose steps are binary-exact
/// (10 ps and 0.625 ps = 2^-4 * 10 ps): stepped code s and vernier code
/// 16 s program *exactly* the same delay in floating point.
std::pair<pecl::ProgrammableDelay::Config, pecl::ProgrammableDelay::Config>
coinciding_configs() {
  pecl::ProgrammableDelay::Config stepped;
  stepped.step = Picoseconds{10.0};
  stepped.code_count = 64;
  stepped.offset_error = Picoseconds{0.0};
  stepped.gain_error = 0.0;
  stepped.inl_bound = Picoseconds{0.0};
  stepped.rj_sigma = Picoseconds{0.0};

  pecl::ProgrammableDelay::Config vernier = stepped;
  vernier.mode = pecl::TimingMode::kVernier;
  vernier.vernier.step = Picoseconds{0.625};
  vernier.vernier.code_count = 1024;
  vernier.vernier.ratio_error = 0.0;
  vernier.vernier.walk_sigma = Picoseconds{0.0};
  vernier.vernier.walk_bound = Picoseconds{0.0};
  return {stepped, vernier};
}

TEST(VernierDelayLine, CoincidingCodesAreByteIdentical) {
  const auto [stepped_cfg, vernier_cfg] = coinciding_configs();
  pecl::ProgrammableDelay stepped(stepped_cfg, Rng(13));
  pecl::ProgrammableDelay vernier(vernier_cfg, Rng(13));
  for (std::size_t code = 0; code < stepped_cfg.code_count; ++code) {
    EXPECT_EQ(stepped.actual_delay(code).ps(),
              vernier.actual_delay(16 * code).ps())
        << "code " << code;
    EXPECT_EQ(stepped.programmed_delay().ps(), vernier.programmed_delay().ps());
  }

  // And through apply(): identical edge times, bit for bit.
  pecl::ProgrammableDelay s2(stepped_cfg, Rng(14));
  pecl::ProgrammableDelay v2(vernier_cfg, Rng(14));
  s2.set_code(37);
  v2.set_code(16 * 37);
  const auto in = sig::EdgeStream::clock(Picoseconds{800.0}, 8);
  const auto out_s = s2.apply(in);
  const auto out_v = v2.apply(in);
  ASSERT_EQ(out_s.transitions().size(), out_v.transitions().size());
  for (std::size_t i = 0; i < out_s.transitions().size(); ++i) {
    EXPECT_EQ(out_s.transitions()[i].time.ps(),
              out_v.transitions()[i].time.ps());
  }
}

// ------------------------------------------------- scenario monotonicity --

ana::ScenarioCell cell(double rate, const char* tree, const char* mode,
                       double severity, double eye) {
  ana::ScenarioCell c;
  c.rate = GbitsPerSec{rate};
  c.tree = tree;
  c.timing_mode = mode;
  c.severity = severity;
  c.eye = UnitIntervals{eye};
  return c;
}

TEST(ScenarioMatrix, MonotoneInRateAcceptsPhysicalCells) {
  const std::vector<ana::ScenarioCell> cells = {
      cell(5.0, "a", "stepped", 0.0, 0.80),
      cell(10.0, "a", "stepped", 0.0, 0.60),
      cell(5.0, "b", "stepped", 0.0, 0.70),
      cell(10.0, "b", "stepped", 0.0, 0.70),  // flat is still non-increasing
  };
  EXPECT_TRUE(ana::eye_nonincreasing_in_rate(cells));
  EXPECT_TRUE(ana::eye_nonincreasing_in_rate({}));  // vacuously true
}

TEST(ScenarioMatrix, MonotoneInRateRejectsEyeThatOpens) {
  const std::vector<ana::ScenarioCell> cells = {
      cell(5.0, "a", "stepped", 0.0, 0.60),
      cell(10.0, "a", "stepped", 0.0, 0.75),
  };
  EXPECT_FALSE(ana::eye_nonincreasing_in_rate(cells));
  // ... unless the climb is inside the stated measurement tolerance.
  EXPECT_TRUE(ana::eye_nonincreasing_in_rate(cells, UnitIntervals{0.2}));
}

TEST(ScenarioMatrix, RateCheckGroupsByOtherAxes) {
  // An eye that "opens with rate" across *different* trees or severities
  // is not a violation; groups must never mix.
  const std::vector<ana::ScenarioCell> cells = {
      cell(10.0, "a", "stepped", 1.0, 0.30),
      cell(5.0, "b", "stepped", 0.0, 0.20),
      cell(10.0, "a", "vernier", 0.0, 0.90),
  };
  EXPECT_TRUE(ana::eye_nonincreasing_in_rate(cells));
}

TEST(ScenarioMatrix, MonotoneInSeverity) {
  std::vector<ana::ScenarioCell> cells = {
      cell(10.0, "a", "stepped", 0.0, 0.60),
      cell(10.0, "a", "stepped", 0.5, 0.50),
      cell(10.0, "a", "stepped", 1.0, 0.35),
  };
  EXPECT_TRUE(ana::eye_nonincreasing_in_severity(cells));
  cells[2].eye = UnitIntervals{0.55};  // worse fault, better eye: a model regression
  EXPECT_FALSE(ana::eye_nonincreasing_in_severity(cells));
  EXPECT_TRUE(ana::eye_nonincreasing_in_severity(cells, UnitIntervals{0.1}));
}

TEST(ScenarioMatrix, CellOrderDoesNotMatter) {
  std::vector<ana::ScenarioCell> cells = {
      cell(10.0, "a", "stepped", 1.0, 0.35),
      cell(10.0, "a", "stepped", 0.0, 0.60),
      cell(10.0, "a", "stepped", 0.5, 0.50),
  };
  EXPECT_TRUE(ana::eye_nonincreasing_in_severity(cells));
  std::swap(cells[0], cells[1]);
  EXPECT_TRUE(ana::eye_nonincreasing_in_severity(cells));
}

// ----------------------------------------- golden-pin identity guarantees --

core::ChannelConfig matrix_channel(const fault::FaultPlan& plan) {
  core::ChannelConfig config;
  config.rate = GbitsPerSec{10.0};
  config.design_name = "tenGig-extension";
  config.serializer = pecl::SerializerTree::extension_32lane();
  config.buffer.rise_2080 = Picoseconds{35.0};
  config.buffer.rj_sigma = Picoseconds{1.8};
  config.clock.frequency = Gigahertz{2.5};
  config.clock.rj_sigma = Picoseconds{0.8};
  config.hookup = sig::Channel::ideal().config();
  config.faults = plan;
  return config;
}

/// Stimulus plus a vernier-strobed capture of it: the full signal path a
/// matrix cell exercises, reduced to comparable bytes.
std::pair<core::Stimulus, BitVector> acquire_vernier_cell(
    const fault::FaultPlan& plan) {
  core::TestSystem sys(matrix_channel(plan), 77);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  core::Stimulus stim = sys.generate(256);

  pecl::ProgrammableDelay delay(
      core::presets::strobe_delay(pecl::TimingMode::kVernier), Rng(21));
  pecl::PeclSampler sampler(pecl::PeclSampler::Config{}, Rng(22));
  sampler.set_threshold(stim.levels.midpoint());
  const auto mid_code =
      static_cast<std::size_t>(stim.ui.ps() / 2.0 / delay.step().ps());
  const std::size_t n_capture = 256 - 17;
  const Picoseconds first{stim.t0.ps() + 16.0 * stim.ui.ps() +
                          delay.actual_delay(mid_code).ps()};
  const auto strobes =
      pecl::PeclSampler::strobe_schedule(first, stim.ui, n_capture);
  BitVector bits =
      sampler.capture(stim.edges, stim.chain, stim.levels, strobes).bits;
  return {std::move(stim), std::move(bits)};
}

void expect_same_stimulus(const core::Stimulus& a, const core::Stimulus& b) {
  EXPECT_EQ(a.bits, b.bits);
  ASSERT_EQ(a.edges.transitions().size(), b.edges.transitions().size());
  for (std::size_t i = 0; i < a.edges.transitions().size(); ++i) {
    ASSERT_EQ(a.edges.transitions()[i].time.ps(),
              b.edges.transitions()[i].time.ps())
        << "edge " << i;
    ASSERT_EQ(a.edges.transitions()[i].level, b.edges.transitions()[i].level);
  }
}

TEST(ExtensionGoldenPins, VernierCellByteIdenticalAcrossThreadCounts) {
  std::vector<std::pair<core::Stimulus, BitVector>> runs;
  for (const std::size_t threads : {0u, 1u, 8u}) {
    util::ScopedThreads scoped(threads);
    runs.push_back(acquire_vernier_cell(fault::FaultPlan{}));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_stimulus(runs[0].first, runs[i].first);
    EXPECT_EQ(runs[0].second, runs[i].second) << "thread variant " << i;
  }
}

TEST(ExtensionGoldenPins, EmptyFaultPlanIsByteIdentical) {
  const auto healthy = acquire_vernier_cell(fault::FaultPlan{});
  const auto empty_plan = acquire_vernier_cell(fault::FaultPlan{12345});
  expect_same_stimulus(healthy.first, empty_plan.first);
  EXPECT_EQ(healthy.second, empty_plan.second);
}

TEST(ExtensionGoldenPins, SteppedAndVernierCapturesCoincide) {
  // Same stimulus, strobes programmed through the two modes at exactly
  // coinciding codes: the captured bytes must match bit for bit.
  core::TestSystem sys(matrix_channel(fault::FaultPlan{}), 77);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const core::Stimulus stim = sys.generate(256);

  const auto [stepped_cfg, vernier_cfg] = coinciding_configs();
  pecl::ProgrammableDelay stepped(stepped_cfg, Rng(23));
  pecl::ProgrammableDelay vernier(vernier_cfg, Rng(23));
  pecl::PeclSampler sampler_s(pecl::PeclSampler::Config{}, Rng(24));
  pecl::PeclSampler sampler_v(pecl::PeclSampler::Config{}, Rng(24));
  sampler_s.set_threshold(stim.levels.midpoint());
  sampler_v.set_threshold(stim.levels.midpoint());

  const std::size_t n_capture = 256 - 17;
  for (const std::size_t code : {std::size_t{0}, std::size_t{5}}) {
    const Picoseconds first_s{stim.t0.ps() + 16.0 * stim.ui.ps() +
                              stepped.actual_delay(code).ps()};
    const Picoseconds first_v{stim.t0.ps() + 16.0 * stim.ui.ps() +
                              vernier.actual_delay(16 * code).ps()};
    ASSERT_EQ(first_s.ps(), first_v.ps());
    const auto strobes_s =
        pecl::PeclSampler::strobe_schedule(first_s, stim.ui, n_capture);
    const auto strobes_v =
        pecl::PeclSampler::strobe_schedule(first_v, stim.ui, n_capture);
    EXPECT_EQ(
        sampler_s.capture(stim.edges, stim.chain, stim.levels, strobes_s).bits,
        sampler_v.capture(stim.edges, stim.chain, stim.levels, strobes_v)
            .bits)
        << "code " << code;
  }
}

}  // namespace
}  // namespace mgt
