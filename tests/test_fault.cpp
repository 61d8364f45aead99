// Tests for the deterministic fault-injection layer (src/fault) and the
// graceful-degradation paths it drives across the signal chain.
//
// The two contract pillars (see fault/fault.hpp):
//   1. An empty FaultPlan changes nothing — outputs stay byte-identical.
//   2. Fault decisions depend only on (plan seed, component, tick), so a
//      faulted run reproduces exactly at every MGT_THREADS setting.
// Plus the degradation behaviors themselves: masked dead pins, calibration
// retries, fabric rerouting, LOS flatlines, and the self-test report.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/faultsweep.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "link/link.hpp"
#include "minitester/array.hpp"
#include "minitester/minitester.hpp"
#include "pecl/clocksource.hpp"
#include "pecl/delayline.hpp"
#include "pecl/mux.hpp"
#include "testbed/calibration.hpp"
#include "testbed/testbed.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "vortex/fabric.hpp"

namespace mgt {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::HealthStatus;

// Restores the ambient thread configuration when a test body returns.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { util::clear_thread_override(); }
};

void expect_streams_identical(const sig::EdgeStream& a,
                              const sig::EdgeStream& b, const char* what) {
  EXPECT_EQ(a.initial_level(), b.initial_level()) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.transitions()[i].time.ps(), b.transitions()[i].time.ps())
        << what << " transition " << i;
    ASSERT_EQ(a.transitions()[i].level, b.transitions()[i].level)
        << what << " transition " << i;
  }
}

testbed::TestbedPacket test_packet(Rng& rng) {
  testbed::TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector::random(testbed::SlotFormat{}.data_bits, rng);
  }
  packet.header = 0b0101;
  return packet;
}

// ------------------------------------------------------------- plan model --

TEST(FaultPlan, WindowsAndElementMatching) {
  FaultSpec spec;
  spec.kind = FaultKind::kLossOfSignal;
  spec.component = "optics";
  spec.index = 2;
  spec.start = 10;
  spec.duration = 5;

  EXPECT_FALSE(spec.active_at(9));
  EXPECT_TRUE(spec.active_at(10));
  EXPECT_TRUE(spec.active_at(14));
  EXPECT_FALSE(spec.active_at(15));
  EXPECT_TRUE(spec.applies(12, 2));
  EXPECT_FALSE(spec.applies(12, 3));

  FaultSpec forever;
  EXPECT_TRUE(forever.active_at(~static_cast<std::uint64_t>(0) - 1));
  EXPECT_TRUE(forever.applies(0, 12345));  // kAllIndices wildcard
}

TEST(FaultPlan, ComponentSlicingIsExact) {
  FaultPlan plan(7);
  plan.schedule({.kind = FaultKind::kMuxStuckAt, .component = "serializer"})
      .schedule({.kind = FaultKind::kDelayDrift,
                 .component = "strobe",
                 .severity = 0.5})
      .schedule({.kind = FaultKind::kDelayDrift,
                 .component = "strobe",
                 .severity = 0.8});
  EXPECT_EQ(plan.size(), 3u);

  const auto strobe = plan.component("strobe");
  EXPECT_TRUE(strobe.any());
  EXPECT_TRUE(strobe.any(FaultKind::kDelayDrift));
  EXPECT_FALSE(strobe.any(FaultKind::kMuxStuckAt));
  EXPECT_EQ(strobe.specs().size(), 2u);
  // Largest severity among active matching specs.
  EXPECT_DOUBLE_EQ(strobe.severity(FaultKind::kDelayDrift, 0), 0.8);

  // Exact-name slicing: no prefix aliasing, unknown names are healthy.
  EXPECT_FALSE(plan.component("strobe2").any());
  EXPECT_FALSE(plan.component("stro").any());
  EXPECT_FALSE(FaultPlan{}.component("serializer").any());
}

TEST(FaultPlan, ComponentRngDependsOnlyOnSeedNameAndSalt) {
  FaultPlan plan_a(99);
  plan_a.schedule({.kind = FaultKind::kNodeFailure, .component = "fabric"});
  FaultPlan plan_b(99);
  plan_b.schedule({.kind = FaultKind::kNodeFailure, .component = "fabric"})
      .schedule({.kind = FaultKind::kLossOfSignal, .component = "optics"});

  // The "fabric" stream ignores scheduling order and unrelated specs.
  Rng a = plan_a.component("fabric").rng(42);
  Rng b = plan_b.component("fabric").rng(42);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  // Different salts and different component names give different streams.
  EXPECT_NE(plan_a.component("fabric").rng(42).next(),
            plan_a.component("fabric").rng(43).next());
  FaultPlan plan_c(99);
  plan_c.schedule({.kind = FaultKind::kNodeFailure, .component = "optics"});
  EXPECT_NE(plan_a.component("fabric").rng(42).next(),
            plan_c.component("optics").rng(42).next());
}

TEST(FaultPlan, ScheduleValidatesSpecs) {
  FaultPlan plan;
  EXPECT_THROW(plan.schedule({.kind = FaultKind::kDeadPin, .component = ""}),
               Error);
  EXPECT_THROW(plan.schedule({.kind = FaultKind::kDelayDrift,
                              .component = "strobe",
                              .severity = 1.5}),
               Error);
}

// --------------------------------------------------- empty-plan identity --

TEST(FaultEquivalence, EmptyPlanLeavesStimulusByteIdentical) {
  // A plan object with a seed but no scheduled specs must be
  // indistinguishable from no plan at all, down to the last double.
  core::ChannelConfig healthy = core::presets::optical_testbed();
  core::ChannelConfig planned = core::presets::optical_testbed();
  planned.faults = FaultPlan(123456);

  core::TestSystem sys_a(healthy, 11);
  core::TestSystem sys_b(planned, 11);
  for (auto* sys : {&sys_a, &sys_b}) {
    sys->program_prbs(7, 0xACE1);
    sys->start();
  }
  const auto stim_a = sys_a.generate(256);
  const auto stim_b = sys_b.generate(256);
  EXPECT_EQ(stim_a.bits, stim_b.bits);
  expect_streams_identical(stim_a.edges, stim_b.edges, "stimulus");
}

TEST(FaultEquivalence, EmptyPlanLeavesDelayLineByteIdentical) {
  pecl::ProgrammableDelay::Config config;
  pecl::ProgrammableDelay healthy(config, Rng(5));
  pecl::ProgrammableDelay planned(config, Rng(5));
  planned.set_faults(FaultPlan(77).component("strobe"));

  sig::EdgeStream input(false);
  for (int i = 1; i <= 16; ++i) {
    input.push(Picoseconds{static_cast<double>(i) * 400.0}, (i % 2) != 0);
  }
  healthy.set_code(50);
  planned.set_code(50);
  expect_streams_identical(healthy.apply(input), planned.apply(input),
                           "delay line");
  EXPECT_EQ(planned.fault_drift().ps(), 0.0);
}

// ------------------------------------------------------------ pecl faults --

TEST(PeclFaults, MuxStuckAtPinsTheLane) {
  auto make_tree = [](FaultPlan plan) {
    pecl::SerializerTree tree(pecl::SerializerTree::testbed_8to1(), Rng(3));
    tree.set_faults(plan.component("serializer"));
    return tree;
  };
  FaultPlan plan(1);
  plan.schedule({.kind = FaultKind::kMuxStuckAt,
                 .component = "serializer",
                 .index = 2,
                 .stuck_high = true});
  auto tree = make_tree(plan);

  const std::size_t n = 64;
  const BitVector zeros(n);  // all-zero pattern: only the stuck lane fires
  const GbitsPerSec rate{2.5};
  const auto edges = tree.serialize(zeros, rate);
  const BitVector recovered =
      edges.to_bits(n, rate.unit_interval(), tree.total_prop_delay());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(recovered[k], tree.lane_for_bit(k) == 2u) << "bit " << k;
  }
}

TEST(PeclFaults, MuxDropoutHoldsPreviousSerialValue) {
  pecl::SerializerTree tree(pecl::SerializerTree::testbed_8to1(), Rng(4));
  FaultPlan plan(2);
  plan.schedule(
      {.kind = FaultKind::kMuxDropout, .component = "serializer"});
  tree.set_faults(plan.component("serializer"));

  // Every lane dropped: the serial line never changes state again.
  const auto edges =
      tree.serialize(BitVector::alternating(64, true), GbitsPerSec{2.5});
  EXPECT_TRUE(edges.empty());
}

TEST(PeclFaults, MuxSeverityFractionsAreNested) {
  // kAllIndices + severity = stuck lane fraction; the affected lane sets
  // grow with severity, so the error count cannot shrink.
  auto errors_at = [](double severity) {
    pecl::SerializerTree tree(pecl::SerializerTree::testbed_8to1(), Rng(6));
    FaultPlan plan(3);
    plan.schedule({.kind = FaultKind::kMuxStuckAt,
                   .component = "serializer",
                   .severity = severity,
                   .stuck_high = true});
    tree.set_faults(plan.component("serializer"));
    const std::size_t n = 128;
    const BitVector bits(n);
    const GbitsPerSec rate{2.5};
    const auto recovered = tree.serialize(bits, rate).to_bits(
        n, rate.unit_interval(), tree.total_prop_delay());
    return recovered.hamming_distance(bits);
  };
  std::size_t previous = errors_at(0.0);
  EXPECT_EQ(previous, 0u);
  for (const double severity : {0.25, 0.5, 0.75, 1.0}) {
    const std::size_t now = errors_at(severity);
    EXPECT_GE(now, previous) << "severity " << severity;
    previous = now;
  }
  EXPECT_EQ(previous, 128u);  // all lanes stuck high on an all-zero word
}

TEST(PeclFaults, DelayDriftShiftsEveryEdgeWithoutExtraRngDraws) {
  pecl::ProgrammableDelay::Config config;
  pecl::ProgrammableDelay healthy(config, Rng(8));
  pecl::ProgrammableDelay drifting(config, Rng(8));
  FaultPlan plan(4);
  plan.schedule({.kind = FaultKind::kDelayDrift,
                 .component = "strobe",
                 .severity = 0.5});
  drifting.set_faults(plan.component("strobe"));
  EXPECT_DOUBLE_EQ(drifting.fault_drift().ps(),
                   0.5 * pecl::ProgrammableDelay::kDriftFullScalePs);

  sig::EdgeStream input(false);
  for (int i = 1; i <= 12; ++i) {
    input.push(Picoseconds{static_cast<double>(i) * 400.0}, (i % 2) != 0);
  }
  const auto base = healthy.apply(input);
  const auto shifted = drifting.apply(input);
  // Same RNG consumption on both paths: the faulted stream is the healthy
  // stream displaced by exactly the drift, edge for edge.
  ASSERT_EQ(base.size(), shifted.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        shifted.transitions()[i].time.ps(),
        base.transitions()[i].time.ps() + drifting.fault_drift().ps())
        << "edge " << i;
  }
}

TEST(PeclFaults, ClockGlitchIsDeterministicAndDisplacesEdges) {
  pecl::ClockSource::Config config;
  FaultPlan plan(5);
  plan.schedule({.kind = FaultKind::kClockGlitch,
                 .component = "clock",
                 .severity = 1.0});

  pecl::ClockSource glitchy_a(config, Rng(9));
  glitchy_a.set_faults(plan.component("clock"));
  pecl::ClockSource glitchy_b(config, Rng(9));
  glitchy_b.set_faults(plan.component("clock"));
  pecl::ClockSource healthy(config, Rng(9));

  const std::size_t cycles = 512;
  const auto a = glitchy_a.generate(cycles);
  expect_streams_identical(a, glitchy_b.generate(cycles), "glitchy clock");

  // Same construction seed: the only differences come from the glitches.
  const auto clean = healthy.generate(cycles);
  ASSERT_EQ(a.size(), clean.size());
  std::size_t displaced = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.transitions()[i].time.ps() != clean.transitions()[i].time.ps()) {
      ++displaced;
    }
  }
  EXPECT_GT(displaced, 0u);
  EXPECT_LT(displaced, a.size() / 2);  // sporadic, not wholesale
  EXPECT_TRUE(a.well_formed());
}

// ---------------------------------------------------------- fabric faults --

TEST(FabricFaults, InjectionAtFailedEntryNodeIsRejected) {
  const auto geometry = vortex::Geometry::for_heights(16, 4);
  vortex::DataVortex fabric(geometry);
  FaultPlan plan(6);
  // Entry nodes live on the outer cylinder at the (fixed) injection angle.
  plan.schedule({.kind = FaultKind::kNodeFailure,
                 .component = "fabric",
                 .index = geometry.flat_index({0, 0, 3})});
  fabric.set_faults(plan.component("fabric"));

  EXPECT_FALSE(fabric.can_inject(3));
  EXPECT_TRUE(fabric.can_inject(4));
  vortex::Packet p;
  p.id = 1;
  p.destination = 9;
  EXPECT_FALSE(fabric.inject(p, 3));
  EXPECT_EQ(fabric.stats().rejected_injections, 1u);
  EXPECT_EQ(fabric.stats().injected, 0u);
  EXPECT_TRUE(fabric.inject(std::move(p), 4));
}

TEST(FabricFaults, SeveritySelectedFailureSetsAreNested) {
  const auto geometry = vortex::Geometry::for_heights(16, 4);
  auto failed_set = [&](double severity) {
    vortex::DataVortex fabric(geometry);
    FaultPlan plan(40);
    plan.schedule({.kind = FaultKind::kNodeFailure,
                   .component = "fabric",
                   .severity = severity});
    fabric.set_faults(plan.component("fabric"));
    std::vector<bool> failed(geometry.node_count());
    for (std::size_t c = 0; c < geometry.cylinder_count; ++c) {
      for (std::size_t a = 0; a < geometry.angle_count; ++a) {
        for (std::size_t h = 0; h < geometry.height_count; ++h) {
          failed[geometry.flat_index({c, a, h})] =
              fabric.node_failed({c, a, h});
        }
      }
    }
    return failed;
  };
  const auto at_02 = failed_set(0.2);
  const auto at_05 = failed_set(0.5);
  std::size_t n_02 = 0;
  std::size_t n_05 = 0;
  for (std::size_t i = 0; i < at_02.size(); ++i) {
    n_02 += at_02[i] ? 1 : 0;
    n_05 += at_05[i] ? 1 : 0;
    // Every node failed at 0.2 is also failed at 0.5 (same uniform draw).
    EXPECT_LE(at_02[i], at_05[i]) << "node " << i;
  }
  EXPECT_GT(n_02, 0u);
  EXPECT_GT(n_05, n_02);
  EXPECT_LT(n_05, at_05.size());
}

TEST(FabricFaults, ReroutesAroundFailuresAndAccountsEveryPacket) {
  vortex::DataVortex fabric(vortex::Geometry::for_heights(16, 4));
  FaultPlan plan(41);
  plan.schedule({.kind = FaultKind::kNodeFailure,
                 .component = "fabric",
                 .severity = 0.25});
  fabric.set_faults(plan.component("fabric"));

  Rng rng(42);
  std::uint64_t attempts = 0;
  std::vector<vortex::Delivery> deliveries;
  for (int slot = 0; slot < 200; ++slot) {
    for (std::size_t port = 0; port < 16; ++port) {
      if (!rng.chance(0.5)) {
        continue;
      }
      vortex::Packet p;
      p.id = attempts + 1;
      p.destination = static_cast<std::uint32_t>(rng.below(16));
      ++attempts;
      (void)fabric.inject(std::move(p), port);
    }
    const auto out = fabric.step();
    deliveries.insert(deliveries.end(), out.begin(), out.end());
  }
  fabric.drain(deliveries, 500);

  const auto& stats = fabric.stats();
  // Full conservation: offered = accepted + rejected; accepted packets end
  // delivered, dropped, or still inside.
  EXPECT_EQ(attempts, stats.injected + stats.rejected_injections);
  EXPECT_EQ(stats.injected,
            stats.delivered + stats.dropped + fabric.occupancy());
  EXPECT_EQ(stats.delivered, deliveries.size());
  // A quarter of the fabric is dead, yet traffic still flows.
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_GT(stats.rejected_injections, 0u);
}

// --------------------------------------------------------- testbed faults --

TEST(TestbedFaults, ScheduledLosDarkensOneChannelGracefully) {
  testbed::OpticalTestbed::Config config;
  FaultPlan plan(50);
  plan.schedule({.kind = FaultKind::kLossOfSignal,
                 .component = "optics",
                 .index = 2});
  config.faults = plan;
  testbed::OpticalTestbed tb(config, 51);
  Rng rng(52);

  const auto result = tb.send_one(test_packet(rng));
  // One dark payload channel: its bits are garbage, the rest of the
  // transfer completes (the clock channel still carries strobes).
  EXPECT_EQ(result.los_channels, 1u);
  EXPECT_TRUE(result.captured);
  EXPECT_GT(result.payload_bit_errors, 0u);
  EXPECT_LE(result.payload_bit_errors, testbed::SlotFormat{}.data_bits);
}

TEST(TestbedFaults, LosWindowCoversExactlyItsTicks) {
  testbed::OpticalTestbed::Config config;
  FaultPlan plan(53);
  plan.schedule({.kind = FaultKind::kLossOfSignal,
                 .component = "optics",
                 .index = 0,
                 .start = 1,
                 .duration = 1});
  config.faults = plan;
  testbed::OpticalTestbed tb(config, 54);
  Rng rng(55);

  EXPECT_EQ(tb.send_one(test_packet(rng)).los_channels, 0u);  // tick 0
  EXPECT_EQ(tb.send_one(test_packet(rng)).los_channels, 1u);  // tick 1
  EXPECT_EQ(tb.send_one(test_packet(rng)).los_channels, 0u);  // tick 2
}

TEST(TestbedFaults, LosOnClockChannelMeansNoCapture) {
  testbed::OpticalTestbed::Config config;
  FaultPlan plan(56);
  plan.schedule({.kind = FaultKind::kLossOfSignal,
                 .component = "optics",
                 .index = testbed::kClockChannel});
  config.faults = plan;
  testbed::OpticalTestbed tb(config, 57);
  Rng rng(58);
  const auto result = tb.send_one(test_packet(rng));
  EXPECT_EQ(result.los_channels, 1u);
  EXPECT_FALSE(result.captured);
}

// ------------------------------------------------------------ calibration --

TEST(CalibrationRecovery, RetriesWithDeeperAveragingThenReportsFailure) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  // Channel 1's serializer drops the first 50 serial bits of every slot,
  // so its first edge comes 30 UI (12 ns) late: more than a delay line's
  // 10.23 ns range can align. The channel stays alive, and its residual
  // stays far above the 25 ps bound.
  FaultPlan plan(60);
  plan.schedule({.kind = FaultKind::kMuxDropout,
                 .component = "tx.ch1.serializer",
                 .duration = 50});
  config.channel.faults = plan;
  testbed::OpticalTransmitter tx(config, 60);

  testbed::CalibrationOptions options;
  options.averaging_slots = 2;
  options.max_attempts = 3;
  const auto outcome = testbed::calibrate_with_recovery(tx, options);
  EXPECT_FALSE(outcome.converged);
  EXPECT_FALSE(outcome.healthy());
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(outcome.averaging_slots_used, 8u);  // 2 -> 4 -> 8
  EXPECT_TRUE(outcome.dead_channels.empty());
}

TEST(CalibrationRecovery, ConvergesWithDefaultBound) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  testbed::OpticalTransmitter tx(config, 61);
  const auto outcome = testbed::calibrate_with_recovery(tx);
  EXPECT_TRUE(outcome.converged);
  EXPECT_TRUE(outcome.healthy());
  EXPECT_LE(outcome.report.worst_residual().ps(), 25.0);
}

TEST(CalibrationRecovery, MasksDeadDataChannelAndKeepsGoing) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  // Channel 1's serializer drops every lane: no edges, ever.
  FaultPlan plan(62);
  plan.schedule(
      {.kind = FaultKind::kMuxDropout, .component = "tx.ch1.serializer"});
  config.channel.faults = plan;
  testbed::OpticalTransmitter tx(config, 63);

  const auto outcome = testbed::calibrate_with_recovery(tx);
  ASSERT_EQ(outcome.dead_channels.size(), 1u);
  EXPECT_EQ(outcome.dead_channels[0], 1u);
  // The alive channels still meet the bound; healthy() reports the mask.
  EXPECT_TRUE(outcome.converged);
  EXPECT_FALSE(outcome.healthy());
}

TEST(CalibrationRecovery, SingleAttemptMatchesPlainCalibration) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  testbed::OpticalTransmitter tx(config, 66);
  testbed::OpticalTransmitter tx2(config, 66);

  const auto plain = testbed::calibrate_transmitter(tx);
  const auto outcome = testbed::calibrate_with_recovery(
      tx2, {.averaging_slots = 8, .max_attempts = 1});
  for (std::size_t ch = 0; ch < testbed::kHighSpeedChannels; ++ch) {
    EXPECT_EQ(plain.initial_skew[ch].ps(),
              outcome.report.initial_skew[ch].ps())
        << "ch" << ch;
    EXPECT_EQ(plain.programmed_codes[ch], outcome.report.programmed_codes[ch])
        << "ch" << ch;
    EXPECT_EQ(plain.residual_skew[ch].ps(),
              outcome.report.residual_skew[ch].ps())
        << "ch" << ch;
  }
}

TEST(CalibrationRecovery, PlainCalibrationThrowsOnDeadChannel) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  FaultPlan plan(67);
  plan.schedule(
      {.kind = FaultKind::kMuxDropout, .component = "tx.ch1.serializer"});
  config.channel.faults = plan;
  testbed::OpticalTransmitter tx(config, 68);
  EXPECT_THROW(testbed::calibrate_transmitter(tx), RecoverableError);
}

TEST(CalibrationRecovery, DeadClockChannelAbortsEarly) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  FaultPlan plan(64);
  plan.schedule({.kind = FaultKind::kMuxDropout,
                 .component = "tx.ch4.serializer"});  // the clock channel
  config.channel.faults = plan;
  testbed::OpticalTransmitter tx(config, 65);

  const auto outcome = testbed::calibrate_with_recovery(tx);
  EXPECT_FALSE(outcome.converged);
  ASSERT_EQ(outcome.dead_channels.size(), 1u);
  EXPECT_EQ(outcome.dead_channels[0], testbed::kClockChannel);
}

// ------------------------------------------------------------ tester array --

TEST(ArrayFaults, DeadPinMasksItsSiteAcrossEveryTouchdown) {
  minitester::TesterArray::Config config;
  config.testers = 4;
  config.defect_rate = 0.0;
  config.bist_bits = 256;
  FaultPlan plan(70);
  plan.schedule(
      {.kind = FaultKind::kDeadPin, .component = "array", .index = 3});
  config.faults = plan;
  minitester::TesterArray array(config, 71);

  const auto result = array.probe_wafer(16);
  // Site 3 is dead in all four touchdowns; the other 12 dies still test.
  EXPECT_EQ(result.masked, 4u);
  EXPECT_EQ(result.fails, 0u);
  EXPECT_EQ(result.overkills, 0u);
  EXPECT_EQ(result.dies, 16u);
}

TEST(ArrayFaults, ProbeContactLossMasksOneTouchdownOnly) {
  minitester::TesterArray::Config config;
  config.testers = 4;
  config.defect_rate = 0.0;
  config.bist_bits = 256;
  FaultPlan plan(72);
  plan.schedule({.kind = FaultKind::kProbeContactLoss,
                 .component = "array",
                 .start = 1,
                 .duration = 1});  // all sites, touchdown 1 only
  config.faults = plan;
  minitester::TesterArray array(config, 73);

  const auto result = array.probe_wafer(16);
  EXPECT_EQ(result.masked, 4u);  // dies 4..7
  EXPECT_EQ(result.fails, 0u);
}

TEST(ArrayFaults, UnmaskedDiesMatchTheHealthyRun) {
  minitester::TesterArray::Config config;
  config.testers = 4;
  config.defect_rate = 0.3;
  config.bist_bits = 256;
  minitester::TesterArray healthy(config, 74);
  const auto base = healthy.probe_wafer(12);

  FaultPlan plan(75);
  plan.schedule(
      {.kind = FaultKind::kDeadPin, .component = "array", .index = 2});
  config.faults = plan;
  minitester::TesterArray faulted(config, 74);
  const auto masked = faulted.probe_wafer(12);

  // Masking skips dies without disturbing the others' Rng streams, so the
  // faulted run can only lose outcomes, never change them.
  EXPECT_EQ(masked.masked, 3u);
  EXPECT_LE(masked.fails, base.fails);
  EXPECT_LE(masked.escapes, base.escapes);
  EXPECT_LE(masked.overkills, base.overkills);
}

// --------------------------------------------------------------- self-test --

TEST(SelfTest, HealthySystemReportsAllOk) {
  core::TestSystem sys(core::presets::optical_testbed(), 80);
  const auto report = sys.self_test();
  EXPECT_TRUE(report.all_ok()) << report.to_string();
  EXPECT_EQ(report.worst(), HealthStatus::kOk);
  for (const char* component :
       {"usb", "dlc", "clock", "serializer", "buffer", "hookup"}) {
    ASSERT_NE(report.find(component), nullptr) << component;
    EXPECT_EQ(report.find(component)->status, HealthStatus::kOk) << component;
  }
}

TEST(SelfTest, FlagsAFaultedSerializer) {
  core::ChannelConfig config = core::presets::optical_testbed();
  FaultPlan plan(81);
  plan.schedule({.kind = FaultKind::kMuxStuckAt,
                 .component = "serializer",
                 .stuck_high = true});
  config.faults = plan;
  core::TestSystem sys(config, 82);

  const auto report = sys.self_test();
  EXPECT_FALSE(report.all_ok());
  ASSERT_NE(report.find("serializer"), nullptr);
  EXPECT_EQ(report.find("serializer")->status, HealthStatus::kFailed)
      << report.to_string();
  // The rest of the chain still checks out.
  EXPECT_EQ(report.find("usb")->status, HealthStatus::kOk);
  EXPECT_EQ(report.find("dlc")->status, HealthStatus::kOk);
}

TEST(SelfTest, HealthReportAggregates) {
  fault::HealthReport report;
  report.add("clock", HealthStatus::kOk);
  report.add("serializer", HealthStatus::kDegraded, "2 slow lanes");
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.worst(), HealthStatus::kDegraded);

  fault::HealthReport sub;
  sub.add("detector", HealthStatus::kFailed);
  report.merge(sub, "rx.");
  EXPECT_EQ(report.worst(), HealthStatus::kFailed);
  ASSERT_NE(report.find("rx.detector"), nullptr);
  EXPECT_NE(report.to_string().find("rx.detector"), std::string::npos);
}

TEST(SelfTest, EmptyHealthReportIsVacuouslyOk) {
  const fault::HealthReport report;
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.worst(), HealthStatus::kOk);
  EXPECT_EQ(report.find("anything"), nullptr);
  EXPECT_TRUE(report.components().empty());
  // Merging an empty report into an empty report stays empty.
  fault::HealthReport into;
  into.merge(report, "sub.");
  EXPECT_TRUE(into.components().empty());
}

TEST(SelfTest, MergedPrefixReportsKeepOrderAndDistinguishNames) {
  // Two subsystems may use the same component names; prefixes must keep
  // their entries distinct and ordered (first-added first).
  fault::HealthReport tx;
  tx.add("serializer", HealthStatus::kOk);
  fault::HealthReport rx;
  rx.add("serializer", HealthStatus::kDegraded, "slow lane");

  fault::HealthReport report;
  report.merge(tx, "tx.");
  report.merge(rx, "rx.");
  ASSERT_EQ(report.components().size(), 2u);
  EXPECT_EQ(report.components()[0].component, "tx.serializer");
  EXPECT_EQ(report.components()[1].component, "rx.serializer");
  EXPECT_EQ(report.find("tx.serializer")->status, HealthStatus::kOk);
  EXPECT_EQ(report.find("rx.serializer")->status, HealthStatus::kDegraded);
  EXPECT_EQ(report.find("serializer"), nullptr)
      << "unprefixed name must not resolve after a prefixed merge";
  // Empty prefix merges keep the original names.
  fault::HealthReport flat;
  flat.merge(rx);
  EXPECT_NE(flat.find("serializer"), nullptr);
}

TEST(SelfTest, LinkDegradedModeRoundTripsThroughSystemReport) {
  // A degraded link (rate fallback engaged) must surface in the same
  // report a controlling PC reads from TestSystem::self_test().
  FaultPlan plan(4242);
  FaultSpec corrupt;
  corrupt.kind = FaultKind::kFrameCorruption;
  corrupt.component = "link.fwd";
  corrupt.severity = 0.5;
  plan.schedule(corrupt);

  link::ArqConfig arq;
  arq.max_retries = 2;
  link::LinkChannel::Config config;
  config.arq = arq;
  config.degrade_window = 4;
  link::LinkChannel channel(
      config, link::make_fault_transport(plan, "link.fwd"),
      link::make_fault_transport(plan, "link.rev"));

  Rng rng(11);
  std::vector<BitVector> payloads;
  for (std::size_t i = 0; i < 16; ++i) {
    payloads.push_back(BitVector::random(channel.codec().user_bits(), rng));
  }
  (void)channel.transfer(payloads);
  ASSERT_GT(channel.rate_steps(), 0u) << "fallback must have engaged";

  core::TestSystem sys(core::presets::optical_testbed(), 80);
  fault::HealthReport report = sys.self_test();
  report.merge(channel.health(), "link.");

  EXPECT_EQ(report.worst(), HealthStatus::kDegraded) << report.to_string();
  ASSERT_NE(report.find("link.rate"), nullptr);
  EXPECT_EQ(report.find("link.rate")->status, HealthStatus::kDegraded);
  ASSERT_NE(report.find("link.arq"), nullptr);
  EXPECT_EQ(report.find("link.arq")->status, HealthStatus::kDegraded);
  // The signal-chain entries are untouched by the merge.
  EXPECT_EQ(report.find("serializer")->status, HealthStatus::kOk);
}

// ------------------------------------------------------------ fault sweep --

TEST(FaultSweep, BerDegradesMonotonicallyWithStuckLaneFraction) {
  // The acceptance sweep: walk the stuck-lane fraction of the mini-tester
  // serializer from healthy to fully stuck and require the measured BER
  // to be nondecreasing (the severity-selected lane sets are nested).
  const auto run = [](double severity) {
    minitester::MiniTester::Config config;
    FaultPlan plan(90);
    plan.schedule({.kind = FaultKind::kMuxStuckAt,
                   .component = "serializer",
                   .severity = severity,
                   .stuck_high = true});
    config.channel.faults = plan;
    minitester::MiniTester tester(config, 91);
    tester.program_prbs(7, 0xACE1F00D);
    tester.start();
    return tester.run_loopback(512);
  };
  const std::vector<double> severities{0.0, 0.25, 0.5, 0.75, 1.0};
  const auto sweep = ana::fault_sweep(severities, run);

  ASSERT_EQ(sweep.size(), severities.size());
  EXPECT_TRUE(ana::ber_monotonic_nondecreasing(sweep, 0.02));
  EXPECT_DOUBLE_EQ(sweep.front().ber, 0.0);   // healthy floor
  EXPECT_GT(sweep.back().ber, 0.3);           // fully stuck: ~half wrong
  for (const auto& point : sweep) {
    EXPECT_GT(point.bits, 0u);
  }
}

TEST(FaultSweep, MonotoneCheckerCatchesRegressions) {
  std::vector<ana::FaultSweepPoint> good(3);
  good[0].ber = 0.0;
  good[1].ber = 0.1;
  good[2].ber = 0.1;
  EXPECT_TRUE(ana::ber_monotonic_nondecreasing(good));
  std::vector<ana::FaultSweepPoint> bad = good;
  bad[2].ber = 0.05;
  EXPECT_FALSE(ana::ber_monotonic_nondecreasing(bad));
  EXPECT_TRUE(ana::ber_monotonic_nondecreasing(bad, 0.06));  // within slack
}

// ------------------------------------------------- thread reproducibility --

TEST(FaultDeterminism, FaultedTestbedRunsIdenticalAtEveryThreadCount) {
  ThreadOverrideGuard guard;
  testbed::OpticalTestbed::Config config;
  FaultPlan plan(100);
  plan.schedule({.kind = FaultKind::kNodeFailure,
                 .component = "fabric",
                 .severity = 0.2})
      .schedule({.kind = FaultKind::kLossOfSignal,
                 .component = "optics",
                 .index = 1})
      .schedule({.kind = FaultKind::kMuxStuckAt,
                 .component = "serializer",
                 .severity = 0.25,
                 .stuck_high = true});
  config.faults = plan;
  config.channel.faults = plan;

  auto run_at = [&](std::size_t threads) {
    util::set_thread_override(threads);
    testbed::OpticalTestbed tb(config, 101);
    return tb.run(0.4, 24);
  };
  const auto reference = run_at(0);
  EXPECT_GT(reference.fabric.delivered, 0u);
  for (const std::size_t threads : {1, 2, 8}) {
    const auto stats = run_at(threads);
    EXPECT_EQ(stats.fabric.injected, reference.fabric.injected) << threads;
    EXPECT_EQ(stats.fabric.delivered, reference.fabric.delivered) << threads;
    EXPECT_EQ(stats.fabric.dropped, reference.fabric.dropped) << threads;
    EXPECT_EQ(stats.fabric.rejected_injections,
              reference.fabric.rejected_injections)
        << threads;
    EXPECT_EQ(stats.fabric.deflections, reference.fabric.deflections)
        << threads;
    EXPECT_EQ(stats.payload_bit_errors, reference.payload_bit_errors)
        << threads;
    EXPECT_EQ(stats.los_events, reference.los_events) << threads;
    EXPECT_EQ(stats.header_errors, reference.header_errors) << threads;
    EXPECT_EQ(stats.signal_checks, reference.signal_checks) << threads;
  }
}

TEST(FaultDeterminism, MaskedWaferProbeIdenticalAtEveryThreadCount) {
  ThreadOverrideGuard guard;
  minitester::TesterArray::Config config;
  config.testers = 4;
  config.defect_rate = 0.25;
  config.bist_bits = 256;
  FaultPlan plan(102);
  plan.schedule(
      {.kind = FaultKind::kDeadPin, .component = "array", .index = 1});
  config.faults = plan;

  auto run_at = [&](std::size_t threads) {
    util::set_thread_override(threads);
    minitester::TesterArray array(config, 103);
    return array.probe_wafer(12);
  };
  const auto reference = run_at(0);
  EXPECT_EQ(reference.masked, 3u);
  for (const std::size_t threads : {1, 2, 8}) {
    const auto result = run_at(threads);
    EXPECT_EQ(result.masked, reference.masked) << threads;
    EXPECT_EQ(result.fails, reference.fails) << threads;
    EXPECT_EQ(result.escapes, reference.escapes) << threads;
    EXPECT_EQ(result.overkills, reference.overkills) << threads;
  }
}

}  // namespace
}  // namespace mgt
