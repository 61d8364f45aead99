// Serial == parallel equivalence suite for the deterministic parallel
// layer (util/parallel) plus golden-value regression pins.
//
// Every pipeline that went multi-threaded — waveform rendering / eye
// accumulation, the optical-testbed transmitter and optics, wafer probing,
// shmoo sweeps, and vortex traffic generation — is run at MGT_THREADS
// 0 (serial fallback), 1, 2 and 8 and must produce byte-identical
// stimulus, histograms and metrics. The golden pins then tie the parallel
// paths to the paper-calibrated numbers (Figs 6-11, 16-19 presets) so a
// determinism bug that shifted values without breaking self-consistency
// would still be caught.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analysis/eye.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/array.hpp"
#include "minitester/minitester.hpp"
#include "minitester/shmoo.hpp"
#include "testbed/testbed.hpp"
#include "testbed/transmitter.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "vortex/traffic.hpp"

namespace mgt {
namespace {

// Thread settings every equivalence case must agree across. 0 is the
// serial in-caller fallback (the reference); 8 oversubscribes this
// machine's cores on purpose.
constexpr std::size_t kThreadSettings[] = {0, 1, 2, 8};

void expect_streams_equal(const sig::EdgeStream& a, const sig::EdgeStream& b,
                          const char* what) {
  EXPECT_EQ(a.initial_level(), b.initial_level()) << what;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-exact: the parallel path must reproduce the serial doubles.
    ASSERT_EQ(a.transitions()[i].time.ps(), b.transitions()[i].time.ps())
        << what << " transition " << i;
    ASSERT_EQ(a.transitions()[i].level, b.transitions()[i].level)
        << what << " transition " << i;
  }
}

// Everything except the settled rail means, which EyeDiagram tracks with
// RunningStats: the chunked path combines those with a Welford merge whose
// floating-point order differs from one sequential accumulation, so they
// agree only to the last ulp against a single-pass render (and exactly
// between any two chunked runs).
void expect_eyes_equal_except_rails(const ana::EyeDiagram& a,
                                    const ana::EyeDiagram& b) {
  ASSERT_EQ(a.total_samples(), b.total_samples());
  for (std::size_t tb = 0; tb < a.config().time_bins; ++tb) {
    for (std::size_t vb = 0; vb < a.config().volt_bins; ++vb) {
      ASSERT_EQ(a.count_at(tb, vb), b.count_at(tb, vb))
          << "histogram bin (" << tb << ", " << vb << ")";
    }
  }
  ASSERT_EQ(a.crossings().size(), b.crossings().size());
  for (std::size_t i = 0; i < a.crossings().size(); ++i) {
    ASSERT_EQ(a.crossings()[i].time.ps(), b.crossings()[i].time.ps())
        << "crossing " << i;
    ASSERT_EQ(a.crossings()[i].rising, b.crossings()[i].rising)
        << "crossing " << i;
  }
  const auto ma = a.metrics();
  const auto mb = b.metrics();
  EXPECT_EQ(ma.jitter.count, mb.jitter.count);
  EXPECT_EQ(ma.jitter.peak_to_peak.ps(), mb.jitter.peak_to_peak.ps());
  EXPECT_EQ(ma.jitter.rms.ps(), mb.jitter.rms.ps());
  EXPECT_EQ(ma.eye_opening.ui(), mb.eye_opening.ui());
  EXPECT_EQ(ma.eye_height.mv(), mb.eye_height.mv());
}

void expect_eyes_equal(const ana::EyeDiagram& a, const ana::EyeDiagram& b) {
  expect_eyes_equal_except_rails(a, b);
  EXPECT_EQ(a.level_high().mv(), b.level_high().mv());
  EXPECT_EQ(a.level_low().mv(), b.level_low().mv());
}

testbed::TestbedPacket make_packet(Rng& rng) {
  testbed::TestbedPacket p;
  for (auto& lane : p.payload) {
    lane = BitVector::random(32, rng);
  }
  p.header = static_cast<std::uint8_t>(rng.below(16));
  return p;
}

// ------------------------------------------------------------ util layer --

TEST(ParallelLayer, MixSeedIsStableAndDecorrelated) {
  EXPECT_EQ(util::mix_seed(1, 2), util::mix_seed(1, 2));
  EXPECT_NE(util::mix_seed(1, 2), util::mix_seed(1, 3));
  EXPECT_NE(util::mix_seed(1, 2), util::mix_seed(2, 2));
  // Neighboring task streams must diverge immediately.
  Rng a = util::task_rng(42, 0);
  Rng b = util::task_rng(42, 1);
  EXPECT_NE(a.next(), b.next());
  // And re-deriving the same stream replays it.
  Rng c = util::task_rng(42, 0);
  Rng d = util::task_rng(42, 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(c.next(), d.next());
  }
}

TEST(ParallelLayer, ScopedThreadsOverridesAndRestores) {
  const std::size_t before = util::thread_count();
  {
    util::ScopedThreads two(2);
    EXPECT_EQ(util::thread_count(), 2u);
    {
      util::ScopedThreads zero(0);
      EXPECT_EQ(util::thread_count(), 0u);
    }
    EXPECT_EQ(util::thread_count(), 2u);
  }
  EXPECT_EQ(util::thread_count(), before);
}

TEST(ParallelLayer, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : kThreadSettings) {
    util::ScopedThreads scoped(threads);
    std::vector<int> hits(257, 0);
    util::parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at " << threads
                            << " threads";
    }
  }
}

TEST(ParallelLayer, FirstTaskExceptionPropagates) {
  for (std::size_t threads : kThreadSettings) {
    util::ScopedThreads scoped(threads);
    EXPECT_THROW(util::parallel_for(64,
                                    [](std::size_t i) {
                                      if (i == 37) {
                                        throw std::runtime_error("task 37");
                                      }
                                    }),
                 std::runtime_error)
        << threads << " threads";
    // The pool must stay usable after an exceptional batch.
    std::atomic<int> ran{0};
    util::parallel_for(16, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 16) << threads << " threads";
  }
}

TEST(ParallelLayer, NestedParallelForRunsInline) {
  util::ScopedThreads scoped(4);
  std::atomic<int> ran{0};
  util::parallel_for(4, [&](std::size_t) {
    util::parallel_for(4, [&](std::size_t) { ++ran; });
  });
  EXPECT_EQ(ran.load(), 16);
}

// ------------------------------------------------------- chunked render --

TEST(ChunkedRender, SampleCountMatchesRenderLoop) {
  sig::RenderConfig rc;
  rc.sample_step = Picoseconds{0.5};
  // Window lengths chosen around exact-multiple boundaries.
  EXPECT_EQ(sig::render_sample_count(rc, Picoseconds{0.0}, Picoseconds{0.5}),
            1u);
  EXPECT_EQ(sig::render_sample_count(rc, Picoseconds{0.0}, Picoseconds{0.6}),
            2u);
  EXPECT_EQ(sig::render_sample_count(rc, Picoseconds{0.0}, Picoseconds{1.0}),
            2u);
  const sig::RenderChunking chunking{.chunk_samples = 100,
                                     .settle_samples = 10};
  EXPECT_EQ(sig::render_chunk_count(rc, Picoseconds{0.0}, Picoseconds{50.0},
                                    chunking),
            1u);
  EXPECT_EQ(sig::render_chunk_count(rc, Picoseconds{0.0}, Picoseconds{100.0},
                                    chunking),
            2u);
}

TEST(ChunkedRender, ManySmallChunksMatchSinglePassExactly) {
  core::TestSystem sys(core::presets::optical_testbed(), 7);
  sys.program_prbs(7, 0xBEEF);
  sys.start();
  auto stimulus = sys.generate(800);

  const Picoseconds t_begin{stimulus.t0.ps() + 16.0 * stimulus.ui.ps()};
  const Picoseconds t_end{stimulus.t0.ps() + 800.0 * stimulus.ui.ps()};
  sig::RenderConfig rc;
  rc.levels = stimulus.levels;
  ana::EyeDiagram::Config eye_config{
      .ui = stimulus.ui,
      .t_ref = stimulus.t0,
      .v_lo = Millivolts{stimulus.levels.vol.mv() - 200.0},
      .v_hi = Millivolts{stimulus.levels.voh.mv() + 200.0},
      .threshold = stimulus.levels.midpoint(),
  };

  ana::EyeDiagram single_pass(eye_config);
  sig::render(stimulus.edges, stimulus.chain, rc, t_begin, t_end,
              {&single_pass});

  // ~19 chunks with a deep-enough settle window; the chain state contracts
  // exponentially so the chunked samples land on the same doubles.
  const sig::RenderChunking chunking{.chunk_samples = 1u << 15,
                                     .settle_samples = 1u << 14};
  auto accumulate = [&](std::size_t threads) {
    util::ScopedThreads scoped(threads);
    return ana::accumulate_eye(stimulus.edges, stimulus.chain, rc, t_begin,
                               t_end, eye_config, chunking);
  };
  const auto chunked_serial = accumulate(0);

  // Chunked vs single pass: samples, histograms, crossings and metrics are
  // bit-exact; the settled rail means agree to the last ulp only (Welford
  // merge vs sequential accumulation).
  expect_eyes_equal_except_rails(single_pass, chunked_serial);
  EXPECT_NEAR(single_pass.level_high().mv(), chunked_serial.level_high().mv(),
              1e-8);
  EXPECT_NEAR(single_pass.level_low().mv(), chunked_serial.level_low().mv(),
              1e-8);

  // Chunked vs chunked across thread counts: bit-exact everywhere.
  for (std::size_t threads : kThreadSettings) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    expect_eyes_equal(chunked_serial, accumulate(threads));
  }
}

// -------------------------------------------------- pipeline equivalence --

TEST(Equivalence, TransmitterStimulusIsByteIdentical) {
  testbed::OpticalTransmitter::Config config;
  config.channel = core::presets::optical_testbed();
  Rng packet_rng(99);
  const auto packet = make_packet(packet_rng);

  util::ScopedThreads serial(0);
  testbed::OpticalTransmitter reference_tx(config, 21);
  const auto reference = reference_tx.transmit(packet, Picoseconds{0.0});

  for (std::size_t threads : kThreadSettings) {
    util::ScopedThreads scoped(threads);
    testbed::OpticalTransmitter tx(config, 21);
    const auto out = tx.transmit(packet, Picoseconds{0.0});
    for (std::size_t ch = 0; ch < testbed::kDataChannels; ++ch) {
      expect_streams_equal(reference.data[ch], out.data[ch], "data");
      ASSERT_EQ(reference.bits.data[ch], out.bits.data[ch]);
    }
    expect_streams_equal(reference.clock, out.clock, "clock");
    expect_streams_equal(reference.frame, out.frame, "frame");
    for (std::size_t h = 0; h < testbed::kHeaderChannels; ++h) {
      expect_streams_equal(reference.header[h], out.header[h], "header");
    }
    ASSERT_EQ(reference.bits.clock, out.bits.clock);
  }
}

TEST(Equivalence, EyeAcquisitionIsByteIdentical) {
  // 3000 bits x 800 samples/bit = 2.4 M samples: a multi-chunk window at
  // the default chunking, so the merge path really runs.
  auto acquire = [](std::size_t threads) {
    util::ScopedThreads scoped(threads);
    core::TestSystem sys(core::presets::optical_testbed(), 42);
    sys.program_prbs(7, 0xACE1);
    sys.start();
    return sys.acquire_eye(3000);
  };
  const auto reference = acquire(0);
  EXPECT_GT(reference.total_samples(), (std::size_t{1} << 20));
  for (std::size_t threads : kThreadSettings) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    expect_eyes_equal(reference, acquire(threads));
  }
}

TEST(Equivalence, JitterAndAmplitudeMetricsAreByteIdentical) {
  auto measure = [](std::size_t threads) {
    util::ScopedThreads scoped(threads);
    core::TestSystem sys(core::presets::optical_testbed(), 42);
    sys.program_prbs(7, 1);
    sys.start();
    const auto jitter = sys.measure_single_edge_jitter(1500, false);
    const auto amplitude = sys.measure_amplitude(1000);
    return std::make_pair(jitter, amplitude);
  };
  const auto [ref_jitter, ref_amplitude] = measure(0);
  EXPECT_GT(ref_jitter.count, 0u);
  for (std::size_t threads : kThreadSettings) {
    const auto [jitter, amplitude] = measure(threads);
    EXPECT_EQ(jitter.count, ref_jitter.count) << threads << " threads";
    EXPECT_EQ(jitter.peak_to_peak.ps(), ref_jitter.peak_to_peak.ps())
        << threads << " threads";
    EXPECT_EQ(jitter.rms.ps(), ref_jitter.rms.ps()) << threads << " threads";
    EXPECT_EQ(jitter.mean_phase.ps(), ref_jitter.mean_phase.ps())
        << threads << " threads";
    EXPECT_EQ(amplitude.settled_high.mv(), ref_amplitude.settled_high.mv())
        << threads << " threads";
    EXPECT_EQ(amplitude.settled_low.mv(), ref_amplitude.settled_low.mv())
        << threads << " threads";
    EXPECT_EQ(amplitude.peak_to_peak.mv(), ref_amplitude.peak_to_peak.mv())
        << threads << " threads";
  }
}

TEST(Equivalence, WaferProbeCountsAreIdentical) {
  minitester::TesterArray::Config config;
  config.testers = 4;
  config.defect_rate = 0.15;
  config.bist_bits = 128;
  auto probe = [&](std::size_t threads) {
    util::ScopedThreads scoped(threads);
    minitester::TesterArray array(config, 12);
    return array.probe_wafer(16);
  };
  const auto reference = probe(0);
  EXPECT_EQ(reference.dies, 16u);
  for (std::size_t threads : kThreadSettings) {
    const auto result = probe(threads);
    EXPECT_EQ(result.dies, reference.dies) << threads << " threads";
    EXPECT_EQ(result.touchdowns, reference.touchdowns)
        << threads << " threads";
    EXPECT_EQ(result.fails, reference.fails) << threads << " threads";
    EXPECT_EQ(result.escapes, reference.escapes) << threads << " threads";
    EXPECT_EQ(result.overkills, reference.overkills)
        << threads << " threads";
    EXPECT_EQ(result.total_time_s, reference.total_time_s)
        << threads << " threads";
  }
}

TEST(Equivalence, ShmooGridIsIdentical) {
  // A real (signal-level) measure: fresh tester per point, per the
  // run_shmoo purity contract.
  auto sweep = [](std::size_t threads) {
    util::ScopedThreads scoped(threads);
    return minitester::run_shmoo(
        "strobe code", {0.0, 10.0, 20.0}, "rate Gbps", {1.0, 2.5},
        [](double code, double rate) {
          minitester::MiniTester::Config config;
          config.channel = core::presets::minitester(GbitsPerSec{rate});
          minitester::MiniTester tester(config, 11);
          tester.program_prbs(7, 0xACE1);
          tester.start();
          tester.set_strobe_code(static_cast<std::size_t>(code));
          return tester.run_loopback(256).ber();
        });
  };
  const auto reference = sweep(0);
  for (std::size_t threads : kThreadSettings) {
    const auto shmoo = sweep(threads);
    ASSERT_EQ(shmoo.ber.size(), reference.ber.size());
    for (std::size_t yi = 0; yi < reference.ber.size(); ++yi) {
      ASSERT_EQ(shmoo.ber[yi].size(), reference.ber[yi].size());
      for (std::size_t xi = 0; xi < reference.ber[yi].size(); ++xi) {
        ASSERT_EQ(shmoo.ber[yi][xi], reference.ber[yi][xi])
            << "(" << xi << ", " << yi << ") at " << threads << " threads";
      }
    }
  }
}

TEST(Equivalence, VortexTrafficResultsAreIdentical) {
  const auto geometry = vortex::Geometry::for_heights(16, 4);
  auto run = [&](std::size_t threads, vortex::TrafficPattern pattern) {
    util::ScopedThreads scoped(threads);
    return vortex::run_traffic(geometry, pattern, 0.5, 200, 77);
  };
  for (auto pattern : {vortex::TrafficPattern::Uniform,
                       vortex::TrafficPattern::Hotspot,
                       vortex::TrafficPattern::Tornado}) {
    const auto reference = run(0, pattern);
    EXPECT_GT(reference.throughput_per_port, 0.0);
    for (std::size_t threads : kThreadSettings) {
      const auto result = run(threads, pattern);
      EXPECT_EQ(result.throughput_per_port, reference.throughput_per_port);
      EXPECT_EQ(result.mean_latency_slots, reference.mean_latency_slots);
      EXPECT_EQ(result.p99_latency_slots, reference.p99_latency_slots);
      EXPECT_EQ(result.mean_deflections, reference.mean_deflections);
      EXPECT_EQ(result.injection_block_rate, reference.injection_block_rate);
      EXPECT_EQ(result.fairness, reference.fairness);
      EXPECT_EQ(result.reorder_rate, reference.reorder_rate);
    }
  }
}

// ------------------------------------------------------------------ stress --

TEST(Stress, TestbedPipelineFiftyTimesAtVaryingThreadCounts) {
  // 50 consecutive end-to-end transfers where the worker count changes
  // between (not during) sends. The stateful testbed must stay in lockstep
  // with an all-serial twin: any scheduling dependence in the TX/optics
  // paths would desynchronize the sequence within a few packets.
  testbed::OpticalTestbed::Config config;
  Rng packet_rng(123);
  std::vector<testbed::TestbedPacket> packets;
  for (int i = 0; i < 50; ++i) {
    packets.push_back(make_packet(packet_rng));
  }

  testbed::OpticalTestbed reference(config, 5);
  testbed::OpticalTestbed varying(config, 5);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    util::ScopedThreads serial(0);
    const auto expected = reference.send_one(packets[i]);
    const std::size_t threads =
        kThreadSettings[i % std::size(kThreadSettings)];
    util::ScopedThreads scoped(threads);
    const auto got = varying.send_one(packets[i]);
    ASSERT_EQ(got.frame_ok, expected.frame_ok) << "packet " << i;
    ASSERT_EQ(got.captured, expected.captured) << "packet " << i;
    ASSERT_EQ(got.header_ok, expected.header_ok) << "packet " << i;
    ASSERT_EQ(got.payload_bit_errors, expected.payload_bit_errors)
        << "packet " << i;
    for (std::size_t ch = 0; ch < testbed::kDataChannels; ++ch) {
      ASSERT_EQ(got.received.payload[ch], expected.received.payload[ch])
          << "packet " << i << " lane " << ch;
    }
  }
}

// ------------------------------------------------------------ golden pins --

// The pins below rerun the bench reproductions (same presets, seeds and
// acquisition sizes) as hard assertions, with the bench tolerances. They
// hold at every thread setting; 2 threads is used so the parallel path is
// the one being pinned.

TEST(GoldenPin, Fig7EyeAt2G5) {
  util::ScopedThreads scoped(2);
  core::TestSystem sys(core::presets::optical_testbed(GbitsPerSec{2.5}), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto metrics = sys.measure_eye(20000);
  EXPECT_NEAR(metrics.jitter.peak_to_peak.ps(), 46.7, 6.0);
  EXPECT_NEAR(metrics.eye_opening.ui(), 0.88, 0.03);
  EXPECT_GT(metrics.eye_height.mv(), 0.0);
}

TEST(GoldenPin, Fig9SingleEdgeJitter) {
  util::ScopedThreads scoped(2);
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 1);
  sys.start();
  const auto falling = sys.measure_single_edge_jitter(10000, false);
  EXPECT_NEAR(falling.peak_to_peak.ps(), 24.0, 4.0);
  EXPECT_NEAR(falling.rms.ps(), 3.2, 0.5);
}

TEST(GoldenPin, Fig19MinitesterEyeAt5G0) {
  util::ScopedThreads scoped(2);
  core::TestSystem sys(core::presets::minitester(GbitsPerSec{5.0}), 99);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto metrics = sys.measure_eye(20000);
  EXPECT_NEAR(metrics.jitter.peak_to_peak.ps(), 50.0, 7.0);
  EXPECT_NEAR(metrics.eye_opening.ui(), 0.75, 0.03);
}

TEST(GoldenPin, AmplitudeRailsAtLvpeclDefaults) {
  util::ScopedThreads scoped(2);
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto amplitude = sys.measure_amplitude(2000);
  EXPECT_NEAR(amplitude.settled_high.mv(), 2400.0, 60.0);
  EXPECT_NEAR(amplitude.settled_low.mv(), 1600.0, 60.0);
  EXPECT_NEAR(amplitude.peak_to_peak.mv(), 800.0, 100.0);
}

}  // namespace
}  // namespace mgt
