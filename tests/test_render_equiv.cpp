// Render-equivalence gate (ctest label: render).
//
// The renderer hands samples to sinks in SoA SampleBlocks, skips the filter
// steps of quiescent runs, and the eye folds each sample with one exact
// mod; that is only allowed because every result it produces is
// byte-identical to per-sample stepping and delivery. This suite is that
// gate:
//
//   - sink level: block delivery produces the same state as per-sample
//     delivery for ANY partitioning of the sample sequence into blocks;
//   - pipeline level: a chunked eye accumulation over one chunk is bitwise
//     identical to a single-pass render();
//   - parallel level: a mixed eye + shmoo workload is bitwise identical at
//     MGT_THREADS 0, 1 and 8;
//   - plus the chunk-boundary regression the harness exposed: a zero
//     settle depth must not silently drop the context sample (and with it
//     every crossing pair that straddles a chunk boundary);
//   - quiescent skip: render() and render_chunk() emit exactly the samples
//     and context of a per-sample copy of the render loop, over flat runs,
//     on-grid transitions, far-from-zero grids, bursts of transitions
//     inside one grid interval, and chains of 0..kMaxPoles poles (one per
//     render kernel);
//   - FilterChain::step over many distinct dts, and the one-mod eye fold
//     for samples before t_ref, against direct computations;
//   - the crossing side-change walk: a render into recorders of one
//     threshold hands them exactly the dense samples of every pair that
//     straddles it, and they record the dense crossings bit for bit, over
//     0..kMaxPoles poles, chunk settle depths 0, 1 and the default, side
//     changes at the chunk context, at consecutive samples and on the
//     threshold, thresholds outside the rails, no transitions, and grids
//     far from zero where the O(1) rest skip must give way to coast();
//   - the sparse strobe walk, the one render path that is not exact: a
//     render into samplers alone against the same render kept dense by a
//     second, every-sample sink, within a 1e-8 mV bound, and a digest
//     that pins its adversarial samples bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/eye.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/dut.hpp"
#include "minitester/shmoo.hpp"
#include "pecl/sampler.hpp"
#include "signal/batch.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "util/digest.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "waveform_trace.hpp"

namespace {

using namespace mgt;

std::uint64_t dbits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Deterministic per-edge jitter that needs no shared RNG state: hash the
// bit index, map to a small offset. Pure function of the index, so streams
// built from it are identical however they are constructed.
sig::EdgeOffsetFn hash_jitter(std::uint64_t seed, double amplitude_ps) {
  return [seed, amplitude_ps](std::size_t bit_index, Picoseconds) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (bit_index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    return Picoseconds{(2.0 * u - 1.0) * amplitude_ps};
  };
}

sig::EdgeStream test_stream(std::uint64_t seed, std::size_t n_bits,
                            Picoseconds ui) {
  Rng rng(seed);
  BitVector bits = BitVector::random(n_bits, rng);
  return sig::EdgeStream::from_bits(bits, ui, Picoseconds{0},
                                    hash_jitter(seed, 3.0));
}

sig::FilterChain test_chain() {
  sig::FilterChain chain;
  chain.add_pole(Picoseconds{40.0})
      .add_pole(Picoseconds{25.0})
      .set_gain(0.9, Millivolts{2000.0});
  return chain;
}

ana::EyeDiagram::Config eye_config(Picoseconds ui) {
  ana::EyeDiagram::Config cfg;
  cfg.ui = ui;
  cfg.time_bins = 64;
  cfg.volt_bins = 32;
  return cfg;
}

// Everything observable about an accumulated eye, bit-exact.
std::vector<std::uint64_t> fingerprint(const ana::EyeDiagram& eye) {
  std::vector<std::uint64_t> fp;
  fp.push_back(eye.total_samples());
  const auto& cfg = eye.config();
  for (std::size_t tb = 0; tb < cfg.time_bins; ++tb) {
    for (std::size_t vb = 0; vb < cfg.volt_bins; ++vb) {
      fp.push_back(eye.count_at(tb, vb));
    }
  }
  for (const sig::Crossing& c : eye.crossings()) {
    fp.push_back(dbits(c.time.ps()));
    fp.push_back(c.rising ? 1 : 0);
  }
  const ana::EyeMetrics m = eye.metrics();
  fp.push_back(m.jitter.count);
  fp.push_back(dbits(m.jitter.peak_to_peak.ps()));
  fp.push_back(dbits(m.jitter.rms.ps()));
  fp.push_back(dbits(m.jitter.mean_phase.ps()));
  fp.push_back(dbits(m.eye_opening.ui()));
  fp.push_back(dbits(m.eye_width.ps()));
  fp.push_back(dbits(m.eye_height.mv()));
  fp.push_back(dbits(m.level_high.mv()));
  fp.push_back(dbits(m.level_low.mv()));
  return fp;
}

// ------------------------------------------------ block delivery gate ----

// Feeds the same sample sequence to `per_sample` one sample at a time and
// to `blocked` in blocks whose sizes cycle through `parts`. Afterwards the
// two sinks must be in identical states (checked by the caller).
void feed_both(sig::WaveformSink& per_sample, sig::WaveformSink& blocked,
               const std::vector<double>& ts, const std::vector<double>& vs,
               const std::vector<std::size_t>& parts) {
  for (std::size_t i = 0; i < ts.size(); ++i) {
    per_sample.on_sample(Picoseconds{ts[i]}, Millivolts{vs[i]});
  }
  sig::SampleBlock block;
  std::size_t pi = 0;
  std::size_t i = 0;
  while (i < ts.size()) {
    const std::size_t want =
        std::min(std::min(parts[pi % parts.size()], sig::SampleBlock::kCapacity),
                 ts.size() - i);
    ++pi;
    block.clear();
    for (std::size_t k = 0; k < want; ++k, ++i) {
      block.push(ts[i], vs[i]);
    }
    blocked.on_block(block);
  }
  per_sample.finish();
  blocked.finish();
}

struct Synth {
  std::vector<double> ts, vs;
};

Synth synth_waveform(std::size_t n) {
  Synth s;
  s.ts.reserve(n);
  s.vs.reserve(n);
  Rng rng(0x5EEDull);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 0.5 * static_cast<double>(i);
    // Band-limited-ish squarish wave with noise: plenty of threshold
    // straddles, flat stretches for the slope gate, excursions for min/max.
    const double phase = std::fmod(t, 800.0) / 800.0;
    const double base = phase < 0.5 ? 2400.0 : 1600.0;
    s.ts.push_back(t);
    s.vs.push_back(base + rng.uniform(-30.0, 30.0));
  }
  return s;
}

const std::vector<std::size_t> kPartitions[] = {
    {1}, {7}, {512}, {3, 64, 1, 500, 2},
};

TEST(BlockDelivery, CrossingRecorderPartitionInvariant) {
  const Synth s = synth_waveform(4000);
  for (const auto& parts : kPartitions) {
    sig::CrossingRecorder a{Millivolts{2000.0}};
    sig::CrossingRecorder b{Millivolts{2000.0}};
    feed_both(a, b, s.ts, s.vs, parts);
    ASSERT_EQ(a.crossings().size(), b.crossings().size());
    for (std::size_t i = 0; i < a.crossings().size(); ++i) {
      EXPECT_EQ(dbits(a.crossings()[i].time.ps()),
                dbits(b.crossings()[i].time.ps()));
      EXPECT_EQ(a.crossings()[i].rising, b.crossings()[i].rising);
    }
  }
}

TEST(BlockDelivery, AmplitudeTrackerPartitionInvariant) {
  const Synth s = synth_waveform(4000);
  for (const auto& parts : kPartitions) {
    sig::AmplitudeTracker a{Millivolts{2000.0}};
    sig::AmplitudeTracker b{Millivolts{2000.0}};
    feed_both(a, b, s.ts, s.vs, parts);
    EXPECT_EQ(dbits(a.v_max().mv()), dbits(b.v_max().mv()));
    EXPECT_EQ(dbits(a.v_min().mv()), dbits(b.v_min().mv()));
    EXPECT_EQ(dbits(a.settled_high().mv()), dbits(b.settled_high().mv()));
    EXPECT_EQ(dbits(a.settled_low().mv()), dbits(b.settled_low().mv()));
  }
}

TEST(BlockDelivery, StrobeSamplerPartitionInvariant) {
  const Synth s = synth_waveform(4000);
  std::vector<Picoseconds> strobes;
  for (double t = 100.0; t < 1900.0; t += 400.0) {
    strobes.push_back(Picoseconds{t});
  }
  sig::StrobeSampler::Config cfg;
  for (const auto& parts : kPartitions) {
    sig::StrobeSampler a{strobes, cfg, Rng(7)};
    sig::StrobeSampler b{strobes, cfg, Rng(7)};
    feed_both(a, b, s.ts, s.vs, parts);
    ASSERT_EQ(a.bits().size(), b.bits().size());
    for (std::size_t i = 0; i < a.bits().size(); ++i) {
      EXPECT_EQ(a.bits()[i], b.bits()[i]);
      EXPECT_EQ(dbits(a.analog()[i].mv()), dbits(b.analog()[i].mv()));
    }
    EXPECT_EQ(a.missed(), b.missed());
  }
}

TEST(BlockDelivery, EyeDiagramPartitionInvariant) {
  const Synth s = synth_waveform(8000);
  for (const auto& parts : kPartitions) {
    ana::EyeDiagram a{eye_config(Picoseconds{400.0})};
    ana::EyeDiagram b{eye_config(Picoseconds{400.0})};
    feed_both(a, b, s.ts, s.vs, parts);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
  }
}

// ---------------------------------------------------- pipeline gate ----

// One chunked eye accumulation over a jittered pseudorandom pattern: small
// chunks so several boundaries (and their settle windows) are exercised.
ana::EyeDiagram run_eye_workload(std::uint64_t seed) {
  const Picoseconds ui{400.0};
  const std::size_t n_bits = 96;
  const sig::EdgeStream stream = test_stream(seed, n_bits, ui);
  const sig::FilterChain chain = test_chain();
  const sig::RenderConfig rc;
  const sig::RenderChunking chunking{4096, 2048};
  return ana::accumulate_eye(stream, chain, rc, Picoseconds{0},
                             Picoseconds{static_cast<double>(n_bits) * ui.ps()},
                             eye_config(ui), chunking);
}

TEST(PipelineEquiv, BlockedEngineMatchesPlainRenderSinglePass) {
  // render() (single pass, never chunked) against the chunked
  // accumulate path over a single-chunk window: the documented identity.
  const Picoseconds ui{400.0};
  const std::size_t n_bits = 24;
  const sig::EdgeStream stream = test_stream(3, n_bits, ui);
  const sig::FilterChain chain = test_chain();
  const sig::RenderConfig rc;
  const Picoseconds t_end{static_cast<double>(n_bits) * ui.ps()};

  ana::EyeDiagram direct{eye_config(ui)};
  std::vector<sig::WaveformSink*> sinks{&direct};
  sig::render(stream, chain, rc, Picoseconds{0}, t_end, sinks);

  const sig::RenderChunking one_chunk{1u << 26, 2048};
  const ana::EyeDiagram chunked = ana::accumulate_eye(
      stream, chain, rc, Picoseconds{0}, t_end, eye_config(ui), one_chunk);
  EXPECT_EQ(fingerprint(direct), fingerprint(chunked));
}

// ----------------------------------------------------- parallel gate ----

// Mixed workload: a chunked eye pass and a small shmoo whose cells each run
// a nested eye accumulation. Returns every result double bit-cast, all of
// which must be identical at every worker count.
std::vector<std::uint64_t> mixed_workload() {
  std::vector<std::uint64_t> out = fingerprint(run_eye_workload(1234));

  const minitester::Shmoo shmoo = minitester::run_shmoo(
      "tau_ps", {20.0, 30.0, 40.0}, "jitter_ps", {0.0, 2.0, 5.0},
      [](double tau_ps, double jitter_ps) {
        const Picoseconds ui{400.0};
        const std::size_t n_bits = 32;
        Rng rng(77);
        const BitVector bits = BitVector::random(n_bits, rng);
        const sig::EdgeStream stream = sig::EdgeStream::from_bits(
            bits, ui, Picoseconds{0},
            hash_jitter(static_cast<std::uint64_t>(jitter_ps * 1000.0) + 5,
                        jitter_ps));
        sig::FilterChain chain;
        chain.add_pole(Picoseconds{tau_ps});
        const ana::EyeDiagram eye = ana::accumulate_eye(
            stream, chain, sig::RenderConfig{}, Picoseconds{0},
            Picoseconds{static_cast<double>(n_bits) * ui.ps()},
            eye_config(ui), sig::RenderChunking{4096, 2048});
        return 1.0 - eye.metrics().eye_opening.ui();
      });
  for (const auto& row : shmoo.ber) {
    for (double x : row) {
      out.push_back(dbits(x));
    }
  }
  return out;
}

TEST(ParallelEquiv, MixedEyeShmooWorkloadByteIdenticalAcrossThreadCounts) {
  std::vector<std::uint64_t> serial, one, eight;
  {
    util::ScopedThreads t(0);  // serial fallback
    serial = mixed_workload();
  }
  {
    util::ScopedThreads t(1);
    one = mixed_workload();
  }
  {
    util::ScopedThreads t(8);
    eight = mixed_workload();
  }
  EXPECT_EQ(serial, one);
  EXPECT_EQ(serial, eight);
}

// ------------------------------------------- chunk-boundary regression ----

// The scalar-equivalence harness exposed this latent chunked-path bug: with
// settle_samples == 0 a chunk past the first starts with k_start == k_emit,
// so the `k + 1 == k_emit` context branch in run_window is unreachable and
// on_context() is never called. Pairwise sinks then silently drop every
// adjacent-sample pair that straddles a chunk boundary — for a pole-free
// chain (which genuinely needs no settling) that loses real crossings. The
// fix keeps at least one settle sample for chunks past the first, restoring
// the render.hpp promise that pairwise sinks see every adjacent pair
// exactly once.
TEST(ChunkedRenderRegression, ZeroSettleMustNotDropBoundaryCrossings) {
  // Ideal square wave through a pole-free chain: transitions at t = -0.25,
  // 49.75, 99.75, ... ps, a quarter step before grid sample 100*m, which
  // then holds the new level while sample 100*m - 1 holds the old one.
  // chunk_samples = 100 places sample 100*m first in its chunk, so every
  // crossing lies between a chunk's context sample and its first.
  const sig::EdgeStream stream =
      sig::EdgeStream::clock(Picoseconds{100.0}, 24, Picoseconds{-0.25});
  sig::FilterChain chain;  // no poles: passthrough, exact at any settle
  const sig::RenderConfig rc;
  const Picoseconds t_end{2400.0};
  const Millivolts th = rc.levels.midpoint();

  sig::CrossingRecorder whole{th};
  std::vector<sig::WaveformSink*> whole_sinks{&whole};
  sig::render(stream, chain, rc, Picoseconds{0}, t_end, whole_sinks);
  ASSERT_GT(whole.crossings().size(), 10u);

  const sig::RenderChunking chunking{100, 0};
  const std::size_t n_chunks =
      sig::render_chunk_count(rc, Picoseconds{0}, t_end, chunking);
  ASSERT_GT(n_chunks, 10u);
  sig::CrossingRecorder merged{th};
  for (std::size_t c = 0; c < n_chunks; ++c) {
    sig::CrossingRecorder part{th};
    std::vector<sig::WaveformSink*> sinks{&part};
    sig::render_chunk(stream, chain, rc, Picoseconds{0}, t_end, chunking, c,
                      sinks);
    merged.merge(part);
  }

  ASSERT_EQ(merged.crossings().size(), whole.crossings().size());
  for (std::size_t i = 0; i < merged.crossings().size(); ++i) {
    EXPECT_EQ(dbits(merged.crossings()[i].time.ps()),
              dbits(whole.crossings()[i].time.ps()));
    EXPECT_EQ(merged.crossings()[i].rising, whole.crossings()[i].rising);
  }
}

// ---------------------------------------------------- quiescent skip ----

// What a window delivers: every emitted sample plus the context sample.
struct Delivered {
  std::vector<double> t, v;
  bool has_context = false;
  double context_t = 0.0, context_v = 0.0;
  // Samples at which the reference chain was provably at rest: proof that
  // a case exercises the skip at all.
  std::size_t at_rest = 0;
};

// The per-sample render loop as it stood before quiescent runs were
// skipped, on the public FilterChain API: every grid sample steps the chain.
Delivered reference_window(const sig::EdgeStream& stream,
                           sig::FilterChain chain, const sig::RenderConfig& rc,
                           Picoseconds t_begin, std::size_t k_start,
                           std::size_t k_emit, std::size_t k_end) {
  const double dt = rc.sample_step.ps();
  auto level_to_mv = [&](bool level) {
    return level ? rc.levels.voh : rc.levels.vol;
  };
  const double t_start = t_begin.ps() + static_cast<double>(k_start) * dt;
  const auto& trs = stream.transitions();
  std::size_t next_tr = 0;
  while (next_tr < trs.size() && trs[next_tr].time.ps() < t_start) {
    ++next_tr;
  }
  bool level = stream.level_at(Picoseconds{t_start});
  chain.reset(level_to_mv(level));
  sig::FilterChain probe = chain;

  Delivered out;
  double now = t_start;
  for (std::size_t k = k_start; k < k_end; ++k) {
    const double t_sample = t_begin.ps() + static_cast<double>(k) * dt;
    while (next_tr < trs.size() && trs[next_tr].time.ps() <= t_sample) {
      const double t_tr = trs[next_tr].time.ps();
      if (t_tr > now) {
        chain.step(level_to_mv(level), Picoseconds{t_tr - now});
        now = t_tr;
      }
      level = trs[next_tr].level;
      ++next_tr;
    }
    if (t_sample > now) {
      chain.step(level_to_mv(level), Picoseconds{t_sample - now});
      now = t_sample;
    }
    probe = chain;
    if (probe.at_rest(level_to_mv(level),
                      Picoseconds{dt * (1.0 + 0x1p-20)})) {
      ++out.at_rest;
    }
    const Millivolts v = chain.output();
    if (k >= k_emit) {
      out.t.push_back(t_sample);
      out.v.push_back(v.mv());
    } else if (k + 1 == k_emit) {
      out.has_context = true;
      out.context_t = t_sample;
      out.context_v = v.mv();
    }
  }
  return out;
}

// Records on_context() beside a WaveformTrace, which records the samples.
class ContextProbe final : public sig::WaveformSink {
public:
  void on_sample(Picoseconds, Millivolts) override {}
  void on_context(Picoseconds t, Millivolts v) override {
    ++calls;
    t_ps = t.ps();
    v_mv = v.mv();
  }
  int calls = 0;
  double t_ps = 0.0, v_mv = 0.0;
};

void expect_same(const Delivered& want, const sig::WaveformTrace& trace,
                 const ContextProbe& ctx) {
  ASSERT_EQ(trace.size(), want.t.size());
  std::size_t t_diff = 0, v_diff = 0;
  for (std::size_t i = 0; i < want.t.size(); ++i) {
    t_diff += dbits(trace.times_ps()[i]) != dbits(want.t[i]);
    v_diff += dbits(trace.volts_mv()[i]) != dbits(want.v[i]);
  }
  EXPECT_EQ(t_diff, 0u);
  EXPECT_EQ(v_diff, 0u);
  EXPECT_EQ(ctx.calls, want.has_context ? 1 : 0);
  if (want.has_context && ctx.calls == 1) {
    EXPECT_EQ(dbits(ctx.t_ps), dbits(want.context_t));
    EXPECT_EQ(dbits(ctx.v_mv), dbits(want.context_v));
  }
}

// render() and every chunk of render_chunk() against the reference loop.
// Returns how many reference samples were at rest across all windows.
std::size_t check_skip(const sig::EdgeStream& stream,
                       const sig::FilterChain& chain,
                       const sig::RenderConfig& rc, Picoseconds t_begin,
                       Picoseconds t_end, const sig::RenderChunking& chunking) {
  const std::size_t total = sig::render_sample_count(rc, t_begin, t_end);
  std::size_t at_rest = 0;
  {
    sig::WaveformTrace trace;
    ContextProbe ctx;
    sig::render(stream, chain, rc, t_begin, t_end, {&trace, &ctx});
    const Delivered want =
        reference_window(stream, chain, rc, t_begin, 0, 0, total);
    expect_same(want, trace, ctx);
    at_rest += want.at_rest;
  }
  const std::size_t n_chunks =
      sig::render_chunk_count(rc, t_begin, t_end, chunking);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    SCOPED_TRACE(c);
    sig::WaveformTrace trace;
    ContextProbe ctx;
    sig::render_chunk(stream, chain, rc, t_begin, t_end, chunking, c,
                      {&trace, &ctx});
    const std::size_t k0 = c * chunking.chunk_samples;
    const std::size_t k1 = std::min(k0 + chunking.chunk_samples, total);
    const std::size_t settle =
        c == 0 ? 0
               : std::min(std::max<std::size_t>(chunking.settle_samples, 1),
                          k0);
    const Delivered want =
        reference_window(stream, chain, rc, t_begin, k0 - settle, k0, k1);
    expect_same(want, trace, ctx);
    at_rest += want.at_rest;
  }
  return at_rest;
}

// Long runs of equal bits: the chain settles to rest well inside each run.
sig::EdgeStream run_stream(Picoseconds ui, Picoseconds t0,
                           const sig::EdgeOffsetFn& offset = nullptr) {
  const BitVector bits = BitVector::from_string(
      "0000000011111111110000000000001111100000000111111111111100000");
  return sig::EdgeStream::from_bits(bits, ui, t0, offset);
}

std::vector<sig::FilterChain> skip_chains() {
  sig::FilterChain none;
  sig::FilterChain lossy_none;
  lossy_none.set_gain(0.6, Millivolts{1900.0});
  sig::FilterChain slow;  // never settles within a run: no skip
  slow.add_pole(Picoseconds{5e4});
  std::vector<sig::FilterChain> chains = {none, lossy_none, slow};
  // One chain per pole count 1..kMaxPoles, so every render kernel runs:
  // distinct taus, rotated per count, and a gain on every other chain.
  const double taus[] = {20.0, 12.0, 30.0, 5.0, 45.0, 8.0, 60.0, 3.0};
  for (std::size_t n = 1; n <= sig::FilterChain::kMaxPoles; ++n) {
    sig::FilterChain chain;
    for (std::size_t j = 0; j < n; ++j) {
      chain.add_pole(Picoseconds{taus[(j + n - 1) % std::size(taus)]});
    }
    if (n % 2 == 0) {
      chain.set_gain(0.8, Millivolts{2000.0});
    }
    chains.push_back(chain);
  }
  return chains;
}

TEST(QuiescentSkip, LongFlatRunsMatchPerSampleStepping) {
  const Picoseconds ui{400.0};
  const sig::EdgeStream stream =
      run_stream(ui, Picoseconds{0}, hash_jitter(11, 4.0));
  const Picoseconds t_end{61 * 400.0};
  std::size_t at_rest = 0;
  for (const sig::FilterChain& chain : skip_chains()) {
    SCOPED_TRACE(chain.pole_count());
    at_rest += check_skip(stream, chain, sig::RenderConfig{}, Picoseconds{0},
                          t_end, sig::RenderChunking{3000, 700});
  }
  EXPECT_GT(at_rest, 100000u);
}

TEST(QuiescentSkip, TransitionsOnGridSamples) {
  // Every transition at a multiple of 50 ps lands exactly on a 0.5 ps grid
  // sample, so the skip must stop one sample short of each.
  const sig::EdgeStream stream =
      sig::EdgeStream::clock(Picoseconds{1000.0}, 12, Picoseconds{250.0});
  std::size_t at_rest = 0;
  for (const sig::FilterChain& chain : skip_chains()) {
    SCOPED_TRACE(chain.pole_count());
    at_rest += check_skip(stream, chain, sig::RenderConfig{}, Picoseconds{0},
                          Picoseconds{12500.0},
                          sig::RenderChunking{1000, 100});
  }
  EXPECT_GT(at_rest, 10000u);
}

TEST(QuiescentSkip, GridFarFromZeroMatches) {
  // Near 1e6 ps the grid t_begin + k*dt steps differ from dt by a few ulps;
  // near 1e12 ps by far more than the skip bound dt*(1 + 2^-20), and at
  // 2^52 ps (1 ps ulp) they are 0 or 2*dt, so runs must break wherever a
  // step exceeds the bound.
  const Picoseconds ui{400.0};
  for (double t0 : {1e6 + 0.123456789, 1e12 + 0.37, 0x1p52}) {
    SCOPED_TRACE(t0);
    const sig::EdgeStream stream =
        run_stream(ui, Picoseconds{t0}, hash_jitter(5, 3.0));
    std::size_t at_rest = 0;
    for (const sig::FilterChain& chain : skip_chains()) {
      SCOPED_TRACE(chain.pole_count());
      at_rest += check_skip(stream, chain, sig::RenderConfig{},
                            Picoseconds{t0 - 123.4},
                            Picoseconds{t0 + 61 * 400.0},
                            sig::RenderChunking{4096, 1000});
    }
    EXPECT_GT(at_rest, 10000u);
  }
}

TEST(QuiescentSkip, SettleAndContextInsideSkippedRun) {
  // One edge at 300 ps, then 8 ns flat: chunk 1 (samples 4000..7999) has
  // its settle region (samples 3000..3999) and its on_context sample deep
  // inside a run the chain is at rest over.
  sig::EdgeStream stream;
  stream.push(Picoseconds{300.0}, true);
  std::size_t at_rest = 0;
  for (const sig::FilterChain& chain : skip_chains()) {
    SCOPED_TRACE(chain.pole_count());
    at_rest += check_skip(stream, chain, sig::RenderConfig{}, Picoseconds{0},
                          Picoseconds{8000.0},
                          sig::RenderChunking{4000, 1000});
  }
  EXPECT_GT(at_rest, 20000u);
}

TEST(QuiescentSkip, StreamWithoutTransitions) {
  for (bool level : {false, true}) {
    const sig::EdgeStream stream{level};
    for (const sig::FilterChain& chain : skip_chains()) {
      SCOPED_TRACE(chain.pole_count());
      EXPECT_GT(check_skip(stream, chain, sig::RenderConfig{},
                           Picoseconds{-77.7}, Picoseconds{3000.0},
                           sig::RenderChunking{2500, 64}),
                6000u);
    }
  }
}

TEST(QuiescentSkip, BurstsInsideOneGridInterval) {
  // Eleven transitions inside one 0.5 ps grid interval, every 1000 ps: each
  // burst steps the walk by 12 distinct fragment dts, each with its own
  // alpha row, and the grid steps after it go back to the row of dt. A
  // fragment's row that leaked into the next step (a fragment reusing the
  // previous fragment's row, or a grid step after the burst using the last
  // fragment's) would move the stage states off the per-sample stepping.
  // Under a swing of a few hundred ulps the chain hovers where at_rest
  // decides by the last bit, so a wrong alpha there also moves the point
  // where a quiescent run starts.
  sig::EdgeStream stream;
  bool level = false;
  for (int b = 0; b < 20; ++b) {
    const double t0 = 1000.0 * (b + 1) + 0.5 * (b % 5);
    const double scale = 0.5 / (170.0 + b);
    for (int j = 0; j < 11; ++j) {
      level = !level;
      stream.push(Picoseconds{t0 + scale * (j + 1) * (j + 1)}, level);
    }
  }
  for (double swing : {800.0, 1e-10}) {
    SCOPED_TRACE(swing);
    sig::RenderConfig rc;
    rc.levels = sig::PeclLevels{Millivolts{1600.0 + swing}, Millivolts{1600.0}};
    std::size_t at_rest = 0;
    for (const sig::FilterChain& chain : skip_chains()) {
      SCOPED_TRACE(chain.pole_count());
      at_rest += check_skip(stream, chain, rc, Picoseconds{0},
                            Picoseconds{21500.0},
                            sig::RenderChunking{5000, 1200});
    }
    EXPECT_GT(at_rest, 100000u);
  }
}

TEST(QuiescentSkip, AtRestOnlyAtAFixedPoint) {
  sig::FilterChain chain;
  chain.add_pole(Picoseconds{20.0}).add_pole(Picoseconds{10.0});
  const Picoseconds dt{0.5};
  chain.reset(Millivolts{1600.0});
  EXPECT_TRUE(chain.at_rest(Millivolts{1600.0}, dt));
  EXPECT_FALSE(chain.at_rest(Millivolts{2400.0}, dt));
  chain.step(Millivolts{2400.0}, dt);
  EXPECT_FALSE(chain.at_rest(Millivolts{2400.0}, dt));
  for (int i = 0; i < 20000 && !chain.at_rest(Millivolts{2400.0}, dt); ++i) {
    chain.step(Millivolts{2400.0}, dt);
  }
  ASSERT_TRUE(chain.at_rest(Millivolts{2400.0}, dt));
  const double settled = chain.output().mv();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dbits(chain.step(Millivolts{2400.0}, dt).mv()),
              dbits(settled));
  }

  sig::FilterChain wire;  // no poles: at rest once the input is passed
  wire.reset(Millivolts{1600.0});
  EXPECT_TRUE(wire.at_rest(Millivolts{1600.0}, dt));
  EXPECT_FALSE(wire.at_rest(Millivolts{2400.0}, dt));
  wire.step(Millivolts{2400.0}, dt);
  EXPECT_TRUE(wire.at_rest(Millivolts{2400.0}, dt));
}

// ------------------------------------------------- filter-chain step ----

// Eleven distinct dts, visited in cycles, repeats and reversals, with the
// grid step between them. Every output must equal stepping with
// alpha = 1 - exp(-dt/tau) computed afresh for each pole: the oracle for
// FilterChain::step, which the render walk reproduces.
void expect_step_matches_fresh_alphas(const std::vector<double>& taus) {
  const double gain = 0.85, mid = 2000.0;
  sig::FilterChain chain;
  for (double tau : taus) {
    chain.add_pole(Picoseconds{tau});
  }
  chain.set_gain(gain, Millivolts{mid});
  chain.reset(Millivolts{1600.0});
  std::vector<double> state(taus.size(), mid + gain * (1600.0 - mid));

  const std::vector<double> dts = {0.5,  0.25, 1.0 / 3.0, 0.75, 1.5, 0.1,
                                   2.0,  0.05, 0.6,       3.25, 0.5 + 1e-9};
  std::vector<std::size_t> order;
  for (std::size_t rep = 0; rep < 6; ++rep) {
    for (std::size_t i = 0; i < dts.size(); ++i) {
      order.push_back(rep % 2 == 0 ? i : dts.size() - 1 - i);
      if (i % 3 == 0) {
        order.push_back(order.back());  // a repeat of the dt just stepped
      }
      order.push_back(0);  // the grid step between fragments
    }
  }
  for (std::size_t n = 0; n < order.size(); ++n) {
    const double dt = dts[order[n]];
    const double u = (n / 5) % 2 == 0 ? 2400.0 : 1600.0;
    double x = mid + gain * (u - mid);
    for (std::size_t i = 0; i < taus.size(); ++i) {
      state[i] += (x - state[i]) * (1.0 - std::exp(-dt / taus[i]));
      x = state[i];
    }
    ASSERT_EQ(dbits(chain.step(Millivolts{u}, Picoseconds{dt}).mv()),
              dbits(x))
        << "step " << n << " dt " << dt;
  }
}

TEST(FilterChain, StepMatchesFreshAlphasAcrossDts) {
  expect_step_matches_fresh_alphas({7.0, 19.5, 33.0});
}

TEST(FilterChain, StepMatchesFreshAlphasWithRepeatedTaus) {
  // alpha_row computes one exp() per distinct tau and copies it to the
  // poles that repeat it; every output must still match the per-pole
  // oracle bit for bit. Equal neighbours; the mini-tester's chain, whose
  // buffer and DUT leads split their rise times over identical poles (three
  // distinct taus in six, equal poles apart); and a full chain of one tau.
  const std::vector<std::vector<double>> chains = {
      {7.0, 7.0, 19.5, 19.5, 19.5, 33.0},
      {51.0, 51.0, 28.85, 21.64, 28.85, 28.85},
      std::vector<double>(sig::FilterChain::kMaxPoles, 12.5),
  };
  for (std::size_t c = 0; c < chains.size(); ++c) {
    SCOPED_TRACE(c);
    expect_step_matches_fresh_alphas(chains[c]);
  }
}

// --------------------------------------------------------- eye fold ----

// The eye fold as it stood before its exact fast paths, and the oracle the
// fold is held to bit for bit: two std::fmod calls per sample, one over
// 2 UI for the grid and one over 1 UI for the center, and the time and
// volt bins computed with their divides.
struct TwoModFold {
  explicit TwoModFold(const ana::EyeDiagram::Config& c)
      : cfg(c), grid(c.time_bins * c.volt_bins, 0) {}

  void add(double t, double v) {
    auto mod = [](double x, double m) {
      double r = std::fmod(x, m);
      return r < 0.0 ? r + m : r;
    };
    ++total;
    const double ui = cfg.ui.ps();
    const double span = 2.0 * ui;
    const double phase2 = mod(t - cfg.t_ref.ps(), span);
    const double vfrac =
        (v - cfg.v_lo.mv()) / (cfg.v_hi.mv() - cfg.v_lo.mv());
    if (vfrac >= 0.0 && vfrac < 1.0) {
      const auto tb = static_cast<std::size_t>(
          phase2 / span * static_cast<double>(cfg.time_bins));
      const auto vb =
          static_cast<std::size_t>(vfrac * static_cast<double>(cfg.volt_bins));
      ++grid[std::min(tb, cfg.time_bins - 1) * cfg.volt_bins +
             std::min(vb, cfg.volt_bins - 1)];
    }
    const double phase1 = mod(t - cfg.t_ref.ps(), ui);
    if (std::abs(phase1 - ui / 2.0) <= ana::EyeDiagram::kCenterWindow * ui) {
      if (v >= cfg.threshold.mv()) {
        min_high = std::min(min_high, v);
        high.add(v);
      } else {
        max_low = std::max(max_low, v);
        low.add(v);
      }
    }
  }

  [[nodiscard]] double eye_height() const {
    return high.count() == 0 || low.count() == 0 ? 0.0 : min_high - max_low;
  }

  ana::EyeDiagram::Config cfg;
  std::vector<std::size_t> grid;
  std::size_t total = 0;
  double min_high = 1e300, max_low = -1e300;
  RunningStats high, low;
};

// Every bin, the sample count, the eye height and both levels, bit for bit.
void expect_eye_matches(const ana::EyeDiagram& eye, const TwoModFold& ref) {
  const auto& cfg = ref.cfg;
  std::size_t mismatched_bins = 0;
  for (std::size_t tb = 0; tb < cfg.time_bins; ++tb) {
    for (std::size_t vb = 0; vb < cfg.volt_bins; ++vb) {
      const std::size_t got = eye.count_at(tb, vb);
      const std::size_t want = ref.grid[tb * cfg.volt_bins + vb];
      if (got != want) {
        ++mismatched_bins;
        ADD_FAILURE() << "bin (" << tb << ", " << vb << "): " << got
                      << " != " << want;
      }
      if (mismatched_bins > 8) {
        return;
      }
    }
  }
  EXPECT_EQ(eye.total_samples(), ref.total);
  EXPECT_EQ(dbits(eye.eye_height().mv()), dbits(ref.eye_height()));
  EXPECT_EQ(dbits(eye.level_high().mv()), dbits(ref.high.mean()));
  EXPECT_EQ(dbits(eye.level_low().mv()), dbits(ref.low.mean()));
}

// Renders [t_begin, t_end) into an eye beside a trace, folds the traced
// samples into the oracle and compares. Returns the samples before t_ref.
std::size_t expect_render_matches_oracle(const ana::EyeDiagram::Config& cfg,
                                         const sig::EdgeStream& stream,
                                         Picoseconds t_begin,
                                         Picoseconds t_end) {
  ana::EyeDiagram eye{cfg};
  sig::WaveformTrace trace;
  sig::render(stream, test_chain(), sig::RenderConfig{}, t_begin, t_end,
              {&eye, &trace});
  TwoModFold ref{cfg};
  std::size_t before_tref = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ref.add(trace.times_ps()[i], trace.volts_mv()[i]);
    before_tref += trace.times_ps()[i] < cfg.t_ref.ps();
  }
  EXPECT_GT(ref.high.count(), 0u);
  EXPECT_GT(ref.low.count(), 0u);
  expect_eye_matches(eye, ref);
  return before_tref;
}

TEST(EyeFold, OneModMatchesTwoFmodsBeforeAndAfterTref) {
  // Each window starts 3 UI before t_ref, so a fifth of the samples fold a
  // negative offset; samples also land exactly on UI multiples. Windows
  // start at t = 0 and at 2^40 ps, where a grid step is a few ulps of t;
  // 3 Gbps has a UI that is not a double, so its period bases are rarely
  // exact; and the bin counts include ones that are not powers of two.
  const std::pair<std::size_t, std::size_t> bins[] = {
      {64, 32}, {100, 37}, {7, 3}, {1, 1}, {250, 129}};
  for (double ui_ps : {400.0, 1000.0 / 3.0}) {
    for (double t0 : {0.0, 0x1p40}) {
      for (const auto& [time_bins, volt_bins] : bins) {
        SCOPED_TRACE(testing::Message() << ui_ps << " ps UI, t0 " << t0
                                        << ", " << time_bins << " x "
                                        << volt_bins);
        const Picoseconds ui{ui_ps};
        ana::EyeDiagram::Config cfg = eye_config(ui);
        cfg.time_bins = time_bins;
        cfg.volt_bins = volt_bins;
        cfg.t_ref = Picoseconds{t0 + 3.0 * ui_ps};
        Rng rng(21);
        const sig::EdgeStream stream = sig::EdgeStream::from_bits(
            BitVector::random(16, rng), ui, Picoseconds{t0},
            hash_jitter(21, 3.0));
        const std::size_t before_tref = expect_render_matches_oracle(
            cfg, stream, Picoseconds{t0}, Picoseconds{t0 + 16.0 * ui_ps});
        EXPECT_GT(before_tref, 1000u);
      }
    }
  }
}

TEST(EyeFold, SamplesOnEveryBinBoundaryMatchOracle) {
  // Each bin boundary lies within a few ulps of its nominal value, so a
  // run of 64 ulps on each side of it holds the boundary itself and the
  // value one ulp below. Times step through every phase boundary in the
  // first period, in a period far from t_ref and before t_ref; voltages
  // step through every volt boundary, both gate ends included, plus NaN.
  for (double ui_ps : {400.0, 1000.0 / 3.0}) {
    for (const auto& [time_bins, volt_bins] :
         {std::pair<std::size_t, std::size_t>{64, 32}, {100, 37}, {7, 3}}) {
      SCOPED_TRACE(testing::Message() << ui_ps << " ps UI, " << time_bins
                                      << " x " << volt_bins);
      ana::EyeDiagram::Config cfg = eye_config(Picoseconds{ui_ps});
      cfg.time_bins = time_bins;
      cfg.volt_bins = volt_bins;
      cfg.v_lo = Millivolts{1500.3};
      cfg.v_hi = Millivolts{2499.9};
      const double span = 2.0 * ui_ps;
      const double lo = cfg.v_lo.mv();
      const double w = cfg.v_hi.mv() - lo;

      std::vector<double> vs;
      for (std::size_t j = 0; j <= volt_bins; ++j) {
        const double nominal =
            lo + w * static_cast<double>(j) / static_cast<double>(volt_bins);
        double v = nominal;
        for (int u = 0; u < 64; ++u) {
          v = std::nextafter(v, -HUGE_VAL);
        }
        for (int u = 0; u < 128; ++u) {
          vs.push_back(v);
          v = std::nextafter(v, HUGE_VAL);
        }
      }
      vs.push_back(std::numeric_limits<double>::quiet_NaN());

      ana::EyeDiagram eye{cfg};
      TwoModFold ref{cfg};
      std::size_t vi = 0;
      auto feed = [&](double t) {
        const double v = vs[vi++ % vs.size()];
        eye.on_sample(Picoseconds{t}, Millivolts{v});
        ref.add(t, v);
      };
      for (double base : {0.0, 1024.0 * span, 0x1p40, -3.0 * span}) {
        for (std::size_t j = 0; j <= time_bins; ++j) {
          double t = base + span * static_cast<double>(j) /
                                static_cast<double>(time_bins);
          for (int u = 0; u < 64; ++u) {
            t = std::nextafter(t, -HUGE_VAL);
          }
          for (int u = 0; u < 128; ++u) {
            feed(t);
            t = std::nextafter(t, HUGE_VAL);
          }
        }
      }
      // Every voltage against a time in mid-bin, on a center-window phase
      // and on one outside it.
      for (double t : {0.5 * ui_ps, 0.05 * ui_ps}) {
        for (std::size_t i = 0; i < vs.size(); ++i) {
          feed(t);
        }
      }
      expect_eye_matches(eye, ref);
      // NaN lands in the low rail's statistics, as the oracle's does.
      EXPECT_TRUE(std::isnan(eye.level_low().mv()));
    }
  }
}

TEST(EyeFold, SamplesOutOfTimeOrderMatchOracle) {
  // on_sample in shuffled order: the phase tracker must reset on any step
  // back in phase, not only at a period wrap.
  const Picoseconds ui{1000.0 / 3.0};
  ana::EyeDiagram::Config cfg = eye_config(ui);
  cfg.t_ref = Picoseconds{2.0 * ui.ps()};
  sig::WaveformTrace trace;
  sig::render(test_stream(8, 10, ui), test_chain(), sig::RenderConfig{},
              Picoseconds{0}, Picoseconds{10.0 * ui.ps()}, {&trace});
  std::vector<std::size_t> order(trace.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Rng rng(31);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  ana::EyeDiagram eye{cfg};
  TwoModFold ref{cfg};
  for (const std::size_t i : order) {
    eye.on_sample(Picoseconds{trace.times_ps()[i]},
                  Millivolts{trace.volts_mv()[i]});
    ref.add(trace.times_ps()[i], trace.volts_mv()[i]);
  }
  expect_eye_matches(eye, ref);
}

// ---------------------------------------------------- fused delivery ----

// accumulate_eye against the same chunks rendered with render_chunk into
// an eye beside a trace, which keeps the block delivery, merged in order:
// bit for bit, crossings included, at every thread count.
void expect_fused_matches_blocks(const sig::EdgeStream& stream,
                                 const sig::FilterChain& chain,
                                 Picoseconds ui, Picoseconds t_end,
                                 const sig::RenderChunking& chunking) {
  const sig::RenderConfig rc;
  const std::size_t n_chunks =
      sig::render_chunk_count(rc, Picoseconds{0}, t_end, chunking);
  ASSERT_GT(n_chunks, 8u);
  ana::EyeDiagram block{eye_config(ui)};
  for (std::size_t c = 0; c < n_chunks; ++c) {
    ana::EyeDiagram part{eye_config(ui)};
    sig::WaveformTrace beside{std::numeric_limits<std::size_t>::max()};
    sig::render_chunk(stream, chain, rc, Picoseconds{0}, t_end, chunking, c,
                      {&part, &beside});
    if (c == 0) {
      block = part;
    } else {
      block.merge(part);
    }
  }
  ASSERT_GT(block.crossings().size(), 10u);
  const std::vector<std::uint64_t> want = fingerprint(block);
  for (std::size_t threads : {0, 1, 8}) {
    SCOPED_TRACE(threads);
    util::ScopedThreads t(threads);
    EXPECT_EQ(fingerprint(ana::accumulate_eye(stream, chain, rc,
                                              Picoseconds{0}, t_end,
                                              eye_config(ui), chunking)),
              want);
  }
}

TEST(FusedDelivery, MatchesBlockPath) {
  // Small chunks with a short settle put many chunk boundaries, and their
  // context samples, in a jittered pseudorandom window.
  const Picoseconds ui{400.0};
  const std::size_t n_bits = 48;
  const Picoseconds t_end{static_cast<double>(n_bits) * ui.ps()};
  for (const sig::RenderChunking chunking :
       {sig::RenderChunking{1000, 64}, sig::RenderChunking{4096, 1},
        sig::RenderChunking{777, 0}}) {
    SCOPED_TRACE(chunking.chunk_samples);
    expect_fused_matches_blocks(test_stream(44, n_bits, ui), test_chain(),
                                ui, t_end, chunking);
  }
  // A clock through a pole-free chain whose every transition lies just
  // before a chunk's first sample, which then holds the new level: each
  // crossing straddles a chunk boundary, so the fused eye must take the
  // context sample as the block path does.
  sig::FilterChain no_poles;
  for (std::size_t settle : {0, 1, 64}) {
    SCOPED_TRACE(settle);
    expect_fused_matches_blocks(
        sig::EdgeStream::clock(Picoseconds{100.0}, 24, Picoseconds{-0.25}),
        no_poles,
        Picoseconds{100.0}, Picoseconds{2400.0},
        sig::RenderChunking{100, settle});
  }
}

// ------------------------------------------------- sparse strobe walk ----

// The bound on |sparse - dense| at a strobe. The walk jumps stretches with
// powers of the one-step map at exactly dt where the dense loop steps
// t_k - t_{k-1}, a few ulps off, and groups its additions differently.
constexpr double kSparseBoundMv = 1e-8;

// Renders the window into one sampler alone, which takes the sparse walk,
// and into a twin sampler beside a WaveformTrace, which keeps the render
// dense.
void expect_sparse_matches_dense(const sig::EdgeStream& stream,
                                 const sig::FilterChain& chain,
                                 const sig::RenderConfig& rc,
                                 Picoseconds t_begin, Picoseconds t_end,
                                 const std::vector<Picoseconds>& strobes,
                                 const sig::StrobeSampler::Config& config) {
  sig::StrobeSampler sparse{strobes, config, Rng(9)};
  sig::render(stream, chain, rc, t_begin, t_end, {&sparse});
  sig::StrobeSampler dense{strobes, config, Rng(9)};
  sig::WaveformTrace every_sample{std::numeric_limits<std::size_t>::max()};
  sig::render(stream, chain, rc, t_begin, t_end, {&dense, &every_sample});
  EXPECT_EQ(every_sample.size(), 1u);  // the dense path ran

  EXPECT_EQ(sparse.missed(), dense.missed());
  const double th = config.threshold.mv();
  for (std::size_t i = 0; i < strobes.size(); ++i) {
    const double v = dense.analog()[i].mv();
    EXPECT_LE(std::abs(sparse.analog()[i].mv() - v), kSparseBoundMv)
        << "strobe " << i;
    if (std::abs(v - th) > kSparseBoundMv) {
      EXPECT_EQ(sparse.bits()[i], dense.bits()[i]) << "strobe " << i;
    }
  }
}

// Strobes that probe the walk where it can go wrong: around every
// transition (within one grid step before and after it, on it, two in one
// grid interval), exactly on grid times, mid-bit, and outside the window.
std::vector<Picoseconds> probing_strobes(const sig::EdgeStream& stream,
                                         Picoseconds t_begin,
                                         Picoseconds t_end, double dt) {
  std::vector<Picoseconds> out;
  const double t0 = t_begin.ps();
  for (const sig::Transition& tr : stream.transitions()) {
    const double t = tr.time.ps();
    for (double off : {-0.7, -0.3, -0.1, 0.0, 0.05, 0.1, 0.45, 0.9, 25.0}) {
      out.push_back(Picoseconds{t + off});
    }
    // The grid time at or after the transition, and the one before it.
    const double k = std::ceil((t - t0) / dt);
    out.push_back(Picoseconds{t0 + k * dt});
    out.push_back(Picoseconds{t0 + (k - 1.0) * dt});
  }
  for (double t = t0 + 137.25; t < t_end.ps(); t += 211.0) {
    out.push_back(Picoseconds{t});
  }
  out.push_back(t_begin);
  out.push_back(Picoseconds{t0 - 5.0});
  out.push_back(Picoseconds{t0 - 0.2});
  out.push_back(Picoseconds{t_end.ps() - 0.1});
  out.push_back(Picoseconds{t_end.ps() + 3.0});
  std::sort(out.begin(), out.end());
  return out;
}

// Runt pulses (a fraction of a grid step to a few steps wide) between
// flat runs, shifted to `t0`.
sig::EdgeStream runt_stream(double t0) {
  sig::EdgeStream stream;
  bool level = false;
  double t = t0 + 300.0;
  for (double width : {0.1, 0.3, 0.5, 0.7, 1.3, 2.0, 4.5, 9.0, 0.25}) {
    level = !level;
    stream.push(Picoseconds{t}, level);
    level = !level;
    stream.push(Picoseconds{t + width}, level);
    t += 433.3;
  }
  return stream;
}

// Calls fn(stream, chain, rc, t_begin, t_end, strobes, config) on every
// adversarial window: four streams (jittered runs, PRBS, runts, no edge)
// near t = 0 and near 1e6 ps, two grid steps, every skip_chains() chain
// (0..kMaxPoles poles, gains 0.6 and 0.8), with and without strobe RJ, the
// strobes from probing_strobes(). Returns the number of windows.
template <typename Fn>
std::size_t for_each_adversarial_window(const Fn& fn) {
  const Picoseconds ui{400.0};
  std::size_t cases = 0;
  for (double t0 : {0.0, 1e6 + 0.123456789}) {
    SCOPED_TRACE(t0);
    const std::vector<sig::EdgeStream> streams = {
        run_stream(ui, Picoseconds{t0}, hash_jitter(11, 4.0)),
        test_stream(17, 40, ui).shifted(Picoseconds{t0}),
        runt_stream(t0),
        sig::EdgeStream{true},
    };
    const Picoseconds t_begin{t0 - 123.4};
    const Picoseconds t_end{t0 + 4000.0};
    for (std::size_t si = 0; si < streams.size(); ++si) {
      SCOPED_TRACE(si);
      for (double step : {0.5, 0.3}) {
        sig::RenderConfig rc;
        rc.sample_step = Picoseconds{step};
        const auto strobes =
            probing_strobes(streams[si], t_begin, t_end, step);
        for (const sig::FilterChain& chain : skip_chains()) {
          SCOPED_TRACE(chain.pole_count());
          for (double rj : {0.0, 2.0}) {
            const sig::StrobeSampler::Config config{
                .threshold = rc.levels.midpoint(),
                .strobe_rj_sigma = Picoseconds{rj},
            };
            fn(streams[si], chain, rc, t_begin, t_end, strobes, config);
            ++cases;
          }
        }
      }
    }
  }
  return cases;
}

constexpr std::size_t kAdversarialWindows =
    2u * 4u * 2u * (3u + sig::FilterChain::kMaxPoles) * 2u;

TEST(SparseStrobe, MatchesDenseAtAdversarialStrobes) {
  EXPECT_EQ(for_each_adversarial_window(expect_sparse_matches_dense),
            kAdversarialWindows);
}

TEST(SparseStrobe, AdversarialWindowsKeepTheirBits) {
  // The walk's samples are not the dense ones, so the bound above cannot
  // show that a change to the walk left them alone. This digest of every
  // strobe's analog value over the adversarial windows was recorded on the
  // sparse kernel as first written, with its own copy of the dense step;
  // a change that moves any value by one ulp changes it. It depends on the
  // libm exp() behind the alphas.
  util::Fnv64 digest;
  const std::size_t cases = for_each_adversarial_window(
      [&](const sig::EdgeStream& stream, const sig::FilterChain& chain,
          const sig::RenderConfig& rc, Picoseconds t_begin, Picoseconds t_end,
          const std::vector<Picoseconds>& strobes,
          const sig::StrobeSampler::Config& config) {
        sig::StrobeSampler sparse{strobes, config, Rng(9)};
        sig::render(stream, chain, rc, t_begin, t_end, {&sparse});
        digest.mix_u64(sparse.missed());
        for (const Millivolts v : sparse.analog()) {
          digest.mix_double(v.mv());
        }
      });
  EXPECT_EQ(cases, kAdversarialWindows);
  EXPECT_EQ(digest.digest(), 0x8e60e2183fde85f2ULL);
}

// A window built to reach every branch of the strobe walk's transition
// search and jumps: the first read far from the window's start, so the
// walk jumps from rest with every deviation exactly zero; two transitions
// inside one grid step, and two in consecutive grid steps; a transition
// exactly on a read sample K and one on K - 1; five transitions between
// two strobe pairs; a strobe in the window's last grid step and one past
// it. The grid is k * 0.5 ps from 0, exact in binary, so each of these
// lands where it says.
TEST(SparseStrobe, CrowdedWindowKeepsItsBits) {
  sig::EdgeStream stream;
  bool level = false;
  for (double t : {1500.25, 1500.3, 1600.0, 1700.0, 1750.1, 1750.6, 1850.1,
                   1900.7, 1950.3, 2000.0, 2100.45}) {
    level = !level;
    stream.push(Picoseconds{t}, level);
  }
  const std::vector<Picoseconds> strobes = {
      Picoseconds{1000.0},  // reads 1999 and 2000, reached by one jump
      Picoseconds{1500.4},  // just past the two-transition grid step
      Picoseconds{1599.8},  // K = 3200, t_K = 1600: a transition
      Picoseconds{1700.2},  // K = 3401, t_(K-1) = 1700: a transition
      Picoseconds{1800.0},
      Picoseconds{2200.0},  // five transitions since the last pair
      Picoseconds{2999.3},  // K = 5999, the window's last sample
      Picoseconds{2999.7},  // K = 6000, past the window: missed
  };
  sig::RenderConfig rc;
  rc.sample_step = Picoseconds{0.5};
  const Picoseconds t_begin{0.0};
  const Picoseconds t_end{3000.0};
  ASSERT_EQ(sig::render_sample_count(rc, t_begin, t_end), 6000u);

  std::vector<sig::FilterChain> chains = skip_chains();
  sig::FilterChain minitester;  // three distinct taus in six poles
  for (double tau : {51.0, 51.0, 28.85, 21.64, 28.85, 28.85}) {
    minitester.add_pole(Picoseconds{tau});
  }
  minitester.set_gain(0.8, Millivolts{2000.0});
  chains.push_back(minitester);
  // alpha(dt) of the 0.01-ps pole rounds to 1, so row 0 of every jump
  // product is a zero of the sign of d_0: the signed-zero case.
  sig::FilterChain fast_first;
  fast_first.add_pole(Picoseconds{0.01}).add_pole(Picoseconds{20.0});
  chains.push_back(fast_first);

  const sig::StrobeSampler::Config config{.threshold = rc.levels.midpoint()};
  util::Fnv64 digest;
  for (const sig::FilterChain& chain : chains) {
    SCOPED_TRACE(chain.pole_count());
    expect_sparse_matches_dense(stream, chain, rc, t_begin, t_end, strobes,
                                config);
    sig::StrobeSampler sparse{strobes, config, Rng(9)};
    sig::render(stream, chain, rc, t_begin, t_end, {&sparse});
    EXPECT_EQ(sparse.missed(), 1u);
    digest.mix_u64(sparse.missed());
    for (const Millivolts v : sparse.analog()) {
      digest.mix_double(v.mv());
    }
  }
  // Recorded on the walk before its jump folds and its once-per-transition
  // search; it depends on the libm exp() behind the alphas.
  EXPECT_EQ(digest.digest(), 0xb74fee1e9787db4aULL);
}

TEST(SparseStrobe, MiniTesterAcquisitionsMatchDenseBitForBit) {
  // 2,000 loopback acquisitions through the mini-tester's capture path at
  // 2.5 Gbps (its DUT leads make a 6-pole chain): 50 PRBS seeds, each
  // scanned across the UI in 40 10-ps strobe codes as a bathtub does,
  // with the sampler's aperture and strobe RJ. Every bit must agree.
  core::TestSystem system(core::presets::minitester(GbitsPerSec{2.5}), 42);
  const minitester::WlpDut dut{minitester::WlpDut::Config{}};
  const pecl::PeclSampler::Config sampler;
  const std::size_t n_bits = 128;
  const std::size_t warmup = 16;
  std::size_t acquisitions = 0;
  std::size_t bit_diffs = 0;
  double max_diff = 0.0;
  for (std::uint64_t prbs_seed = 1; prbs_seed <= 50; ++prbs_seed) {
    system.program_prbs(7, prbs_seed);
    system.start();
    for (std::size_t code = 0; code < 40; ++code) {
      core::Stimulus stim = system.generate(n_bits);
      const sig::EdgeStream edges = dut.respond(stim.edges);
      sig::FilterChain chain = stim.chain;
      const double stim_delay = chain.group_delay().ps();
      dut.contribute(chain, stim.levels.midpoint());
      const double t0 = stim.t0.ps() + dut.loopback_delay().ps() +
                        (chain.group_delay().ps() - stim_delay);
      const auto strobes = pecl::PeclSampler::strobe_schedule(
          Picoseconds{t0 + static_cast<double>(warmup) * stim.ui.ps() +
                      10.0 * static_cast<double>(code)},
          stim.ui, n_bits - warmup - 1);

      sig::StrobeSampler::Config config{
          .threshold = sig::attenuated(stim.levels, chain.gain()).midpoint(),
          .strobe_rj_sigma = sampler.strobe_rj_sigma,
          .aperture = sampler.aperture,
      };
      const sig::RenderConfig rc{.levels = stim.levels,
                                 .sample_step = sampler.sample_step};
      const Picoseconds t_begin = strobes.front() - Picoseconds{2000.0};
      const Picoseconds t_end = strobes.back() + Picoseconds{2000.0};
      sig::StrobeSampler sparse{strobes, config, Rng(acquisitions)};
      sig::render(edges, chain, rc, t_begin, t_end, {&sparse});
      sig::StrobeSampler dense{strobes, config, Rng(acquisitions)};
      sig::WaveformTrace every_sample{std::numeric_limits<std::size_t>::max()};
      sig::render(edges, chain, rc, t_begin, t_end, {&dense, &every_sample});

      ASSERT_EQ(sparse.missed(), 0u);
      ASSERT_EQ(dense.missed(), 0u);
      bit_diffs += sparse.bits().hamming_distance(dense.bits());
      for (std::size_t i = 0; i < strobes.size(); ++i) {
        max_diff = std::max(max_diff, std::abs(sparse.analog()[i].mv() -
                                               dense.analog()[i].mv()));
      }
      ++acquisitions;
    }
  }
  EXPECT_EQ(acquisitions, 2000u);
  EXPECT_EQ(bit_diffs, 0u);
  EXPECT_LE(max_diff, kSparseBoundMv);
}

// ----------------------------------------------- crossing side changes ----

// Reports a crossing threshold, as a CrossingRecorder does, and records
// every sample and context it is handed.
class SideProbe final : public sig::WaveformSink {
public:
  explicit SideProbe(Millivolts threshold) : threshold_(threshold) {}
  void on_sample(Picoseconds t, Millivolts v) override {
    t_ps.push_back(t.ps());
    v_mv.push_back(v.mv());
  }
  void on_context(Picoseconds t, Millivolts v) override {
    ++contexts;
    context_t = t.ps();
    context_v = v.mv();
  }
  [[nodiscard]] std::optional<Millivolts> crossing_threshold() const override {
    return threshold_;
  }
  std::vector<double> t_ps, v_mv;
  int contexts = 0;
  double context_t = 0.0, context_v = 0.0;

private:
  Millivolts threshold_;
};

void expect_same_crossings(const std::vector<sig::Crossing>& got,
                           const std::vector<sig::Crossing>& want) {
  ASSERT_EQ(got.size(), want.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    diffs += dbits(got[i].time.ps()) != dbits(want[i].time.ps());
    diffs += got[i].rising != want[i].rising;
  }
  EXPECT_EQ(diffs, 0u);
}

// What the adversarial cases below must contain, counted on the dense
// windows, so a case that stops exercising one of them fails.
struct SideWitness {
  std::size_t crossings = 0;
  std::size_t context_straddles = 0;   // a side change at k_emit
  std::size_t consecutive_flips = 0;   // side changes at k and k + 1
  std::size_t on_threshold = 0;        // a side change with v == th
};

// One window rendered twice: densely (a WaveformTrace beside the recorder
// keeps the dense loop) and by the side-change loop (two recorders and a
// probe, all of one threshold). The recorders must match the dense one bit
// for bit, and the probe must be handed exactly the dense samples of every
// pair that straddles th, each once and in time order, plus the dense
// context.
template <typename Render>
void check_side_window(const Render& render_into, Millivolts th,
                       SideWitness& witness) {
  sig::CrossingRecorder dense{th};
  sig::WaveformTrace trace;
  ContextProbe ctx;
  render_into({&dense, &trace, &ctx});
  sig::CrossingRecorder a{th};
  sig::CrossingRecorder b{th};
  SideProbe probe{th};
  render_into({&a, &probe, &b});
  expect_same_crossings(a.crossings(), dense.crossings());
  expect_same_crossings(b.crossings(), dense.crossings());

  ASSERT_EQ(probe.contexts, ctx.calls);
  if (ctx.calls == 1) {
    EXPECT_EQ(dbits(probe.context_t), dbits(ctx.t_ps));
    EXPECT_EQ(dbits(probe.context_v), dbits(ctx.v_mv));
  }
  const std::vector<double>& ts = trace.times_ps();
  const std::vector<double>& vs = trace.volts_mv();
  std::vector<double> want_t, want_v;
  bool have_prev = ctx.calls == 1;
  bool prev_below = ctx.v_mv < th.mv();
  double prev_v = ctx.v_mv;
  bool prev_flipped = false;  // sample i - 1 went out as a pair's second
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const bool below = vs[i] < th.mv();
    const bool flipped = have_prev && below != prev_below;
    if (flipped) {
      if (i > 0 && !prev_flipped) {
        want_t.push_back(ts[i - 1]);
        want_v.push_back(vs[i - 1]);
      }
      want_t.push_back(ts[i]);
      want_v.push_back(vs[i]);
      witness.context_straddles += i == 0;
      witness.consecutive_flips += prev_flipped;
      witness.on_threshold += vs[i] == th.mv() || prev_v == th.mv();
    }
    have_prev = true;
    prev_v = vs[i];
    prev_below = below;
    prev_flipped = flipped;
  }
  ASSERT_EQ(probe.t_ps.size(), want_t.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < want_t.size(); ++i) {
    diffs += dbits(probe.t_ps[i]) != dbits(want_t[i]);
    diffs += dbits(probe.v_mv[i]) != dbits(want_v[i]);
  }
  EXPECT_EQ(diffs, 0u);
  witness.crossings += dense.crossings().size();
}

// render() and every chunk of render_chunk() at each settle depth.
void check_side_changes(const sig::EdgeStream& stream,
                        const sig::FilterChain& chain,
                        const sig::RenderConfig& rc, Picoseconds t_begin,
                        Picoseconds t_end, std::size_t chunk_samples,
                        Millivolts th, SideWitness& witness) {
  check_side_window(
      [&](const std::vector<sig::WaveformSink*>& sinks) {
        sig::render(stream, chain, rc, t_begin, t_end, sinks);
      },
      th, witness);
  for (const std::size_t settle :
       {std::size_t{0}, std::size_t{1}, sig::RenderChunking{}.settle_samples}) {
    SCOPED_TRACE(settle);
    const sig::RenderChunking chunking{chunk_samples, settle};
    const std::size_t n_chunks =
        sig::render_chunk_count(rc, t_begin, t_end, chunking);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      SCOPED_TRACE(c);
      check_side_window(
          [&](const std::vector<sig::WaveformSink*>& sinks) {
            sig::render_chunk(stream, chain, rc, t_begin, t_end, chunking, c,
                              sinks);
          },
          th, witness);
    }
  }
}

// A pole-free chain flips side at every sample: transitions halfway
// between grid samples, one per grid step.
sig::EdgeStream every_sample_stream() {
  sig::EdgeStream stream;
  bool level = false;
  for (int j = 0; j < 40; ++j) {
    level = !level;
    stream.push(Picoseconds{2500.25 + 0.5 * j}, level);
  }
  return stream;
}

TEST(CrossingSideChanges, MatchDenseBitForBit) {
  const Picoseconds ui{400.0};
  const sig::RenderConfig rc;
  const Picoseconds t_begin{0};
  const Picoseconds t_end{12000.0};
  sig::EdgeStream single_edge;  // one edge, then a run the chain rests over
  single_edge.push(Picoseconds{300.0}, true);
  const std::vector<sig::EdgeStream> streams = {
      run_stream(ui, Picoseconds{0}, hash_jitter(11, 4.0)),
      test_stream(17, 30, ui),
      runt_stream(0.0),
      every_sample_stream(),
      // A transition just before every 4000-sample chunk boundary: a
      // pole-free chain changes side between the context sample and
      // k_emit.
      sig::EdgeStream::clock(Picoseconds{4000.0}, 3, Picoseconds{1999.75}),
      single_edge,
      sig::EdgeStream{true},
      sig::EdgeStream{false},
  };
  SideWitness witness;
  for (std::size_t si = 0; si < streams.size(); ++si) {
    SCOPED_TRACE(si);
    for (const sig::FilterChain& chain : skip_chains()) {
      SCOPED_TRACE(chain.pole_count());
      // A threshold equal to a sample on the first edge, so v == th there.
      sig::WaveformTrace trace;
      sig::render(streams[si], chain, rc, t_begin, t_end, {&trace});
      const std::vector<double>& vs = trace.volts_mv();
      const auto moved = std::find_if(vs.begin(), vs.end(), [&](double v) {
        return v != vs.front();
      });
      const double on_sample = moved == vs.end() ? vs.front() : *moved;
      for (const double th : {rc.levels.midpoint().mv(), on_sample, 1000.0,
                              3000.0}) {
        SCOPED_TRACE(th);
        check_side_changes(streams[si], chain, rc, t_begin, t_end, 4000,
                           Millivolts{th}, witness);
      }
    }
  }
  EXPECT_GT(witness.crossings, 2000u);
  EXPECT_GT(witness.context_straddles, 100u);
  EXPECT_GT(witness.consecutive_flips, 500u);
  EXPECT_GT(witness.on_threshold, 500u);
}

TEST(CrossingSideChanges, TwoThresholdsKeepTheDenseLoop) {
  // Sinks that report different thresholds read more than one side test,
  // so each must be handed every sample, as a dense render hands it.
  const sig::EdgeStream stream =
      run_stream(Picoseconds{400.0}, Picoseconds{0}, hash_jitter(11, 4.0));
  const sig::RenderConfig rc;
  for (const sig::FilterChain& chain : skip_chains()) {
    SCOPED_TRACE(chain.pole_count());
    sig::WaveformTrace trace;
    sig::render(stream, chain, rc, Picoseconds{0}, Picoseconds{8000.0},
                {&trace});
    SideProbe lo{Millivolts{1900.0}};
    SideProbe hi{Millivolts{2100.0}};
    sig::render(stream, chain, rc, Picoseconds{0}, Picoseconds{8000.0},
                {&lo, &hi});
    for (const SideProbe* probe : {&lo, &hi}) {
      ASSERT_EQ(probe->t_ps.size(), trace.size());
      std::size_t diffs = 0;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        diffs += dbits(probe->t_ps[i]) != dbits(trace.times_ps()[i]);
        diffs += dbits(probe->v_mv[i]) != dbits(trace.volts_mv()[i]);
      }
      EXPECT_EQ(diffs, 0u);
    }
  }
}

TEST(CrossingSideChanges, FarGridCoastsAndMatchesDense) {
  // Far from zero a grid time's rounding dwarfs the rest bound's margin
  // dt * 2^-20, so grid steps exceed dt_max: near 2^40 ps (ulp 2^-12 ps)
  // by a few hundredths of a percent at the 0.3 ps step, near 2^50 ps
  // (ulp 0.25 ps) by two thirds. A chain at rest under dt_max can move
  // under such a step, so an O(1) skip over the run would keep a value
  // that coast() and the dense loop do not; the walk's check must send
  // these windows to coast().
  struct Case {
    double t0, step;
  };
  std::size_t long_steps = 0;
  SideWitness witness;
  for (const Case c : {Case{0x1p40 + 0.37, 0.5}, Case{0x1p40 + 0.37, 0.3},
                       Case{0x1p50 + 0.37, 0.3}}) {
    SCOPED_TRACE(c.t0);
    SCOPED_TRACE(c.step);
    sig::RenderConfig rc;
    rc.sample_step = Picoseconds{c.step};
    const Picoseconds t_begin{c.t0 - 123.4};
    const Picoseconds t_end{c.t0 + 24400.0};
    const std::size_t total = sig::render_sample_count(rc, t_begin, t_end);
    for (std::size_t k = 1; k < total; ++k) {
      const double t_prev =
          t_begin.ps() + static_cast<double>(k - 1) * c.step;
      const double t_k = t_begin.ps() + static_cast<double>(k) * c.step;
      long_steps += t_k - t_prev > c.step * (1.0 + 0x1p-20);
    }
    const sig::EdgeStream stream = run_stream(
        Picoseconds{400.0}, Picoseconds{c.t0}, hash_jitter(5, 3.0));
    for (const sig::FilterChain& chain : skip_chains()) {
      SCOPED_TRACE(chain.pole_count());
      check_side_changes(stream, chain, rc, t_begin, t_end, 16384,
                         rc.levels.midpoint(), witness);
    }
  }
  EXPECT_GT(long_steps, 50000u);
  EXPECT_GT(witness.crossings, 400u);
}

}  // namespace
