// Streaming analog renderer.
//
// Converts an edge stream plus level configuration through a FilterChain
// into a uniformly sampled voltage waveform, pushed in SampleBlocks into
// WaveformSinks (eye accumulators, crossing detectors, samplers, ...).
// Nothing is ever stored whole: a million-UI acquisition uses O(1) memory in
// the renderer.
//
// Accuracy: the chain state is advanced exactly to each transition time, so
// the first pole places an edge with no sampling-grid quantization. Each
// later pole leads the continuous-time response by dt/2 (see filter.hpp),
// so an N-pole chain's crossings come (N-1) * dt/2 early: 0.25 ps per extra
// pole at the default 0.5 ps step. That lead is the same for every sub-grid
// edge phase (to within 5 fs), so it moves no crossing relative to another
// and adds no jitter. The linear interpolation done by downstream sinks
// between grid samples adds sub-0.01 ps at the default step.
//
// Every window runs on one exact walk of the chain, one per pole count
// (internal::Walk, signal/walk.hpp): it starts at the steady state of the
// stream level at the window's first sample and reaches a grid sample by a
// step to each transition before it, then one to the sample. Four
// deliveries use it, picked once per window from what the sinks read (the
// first three share the loop that reaches every sample and differ only in
// what they hand out):
//   - dense: reaches every grid sample and delivers it in SampleBlocks,
//     skipping only the steps of quiescent runs, which move no stage; its
//     samples are byte-identical to stepping the chain per sample.
//   - fused: accumulate_chunked into a sink with an inline per-sample fold
//     (FoldsSamples: the eye) runs the dense loop with each sample handed
//     straight to Sink::fold_sample, with no block and no virtual call.
//     Exact: the sink sees the same samples and context sample in the same
//     order, and its on_block is a loop over the same fold.
//   - side changes: when every sink reads only the crossings of one
//     threshold (WaveformSink::crossing_threshold), it reaches the same
//     samples with the same steps, crosses each quiescent run in O(1),
//     and delivers only the grid pairs whose samples lie on opposite
//     sides of the threshold. Exact: every delivered sample is the dense
//     one, and the sinks record the same crossings.
//   - strobe pairs: when every sink reads only strobes
//     (WaveformSink::strobe_times), it reaches only the grid samples that
//     absorb transitions (searching for each once, when the transition
//     before it is absorbed), jumps every other stretch by powers of the
//     one-grid-step map, and delivers only the grid pair around each
//     strobe. Its samples differ from the dense ones by rounding only:
//     under 1e-10 mV on the mini-tester's 6-pole chain near t = 0, and
//     growing with ulp(t), since the jump steps exactly dt where the dense
//     loop steps t_k - t_{k-1}.
#pragma once

#include <concepts>
#include <optional>
#include <vector>

#include "signal/batch.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/levels.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// Consumer of rendered waveform samples.
class WaveformSink {
public:
  virtual ~WaveformSink() = default;
  /// Called for each grid sample in time order.
  virtual void on_sample(Picoseconds t, Millivolts v) = 0;
  /// Batch delivery: the renderer hands samples in SampleBlocks (time
  /// order, partition-independent semantics). The default unrolls to
  /// on_sample(), so per-sample sinks behave byte-identically; hot sinks
  /// override this and run their loops over the SoA arrays. An override
  /// must produce the same state as the per-sample replay for any
  /// partitioning of the sample sequence into blocks.
  virtual void on_block(const SampleBlock& block) {
    for (std::size_t i = 0; i < block.size; ++i) {
      on_sample(Picoseconds{block.t[i]}, Millivolts{block.v[i]});
    }
  }
  /// Called once after the last sample.
  virtual void finish() {}
  /// Called with the grid sample immediately preceding this sink's window
  /// when rendering a chunk of a larger acquisition: sinks that look at
  /// adjacent-sample pairs (crossing interpolation, slope gates) use it to
  /// prime their previous-sample state without counting the sample itself.
  virtual void on_context(Picoseconds, Millivolts) {}
  /// The sorted times at which this sink reads the waveform, or nullptr
  /// (the default) for a sink that reads every grid sample. A sink that
  /// returns a list promises that its state after finish() depends only on
  /// the grid pair (K-1, K) around each strobe s, K being the first grid
  /// index of the window past its first with t_K >= s, and is the same for
  /// any time-ordered subsequence of the grid that holds those pairs. When every sink of a window
  /// returns a list, render() delivers just those pairs (see the file
  /// comment) and no on_context() sample.
  [[nodiscard]] virtual const std::vector<Picoseconds>* strobe_times() const {
    return nullptr;
  }
  /// The threshold whose crossings are all this sink reads, or nullopt
  /// (the default) for a sink that reads every grid sample. A sink that
  /// returns a threshold th promises that what it reports after the window
  /// depends only on the grid pairs (k-1, k) whose samples lie on opposite
  /// sides of th (v < th for one and not the other), the on_context()
  /// sample standing as k-1 for the window's first, and is the same for
  /// any time-ordered subsequence of the grid that holds those pairs and in
  /// which every two consecutive samples that are not grid neighbours lie
  /// on one side. When every sink of a window returns the same threshold,
  /// render() delivers just those pairs (see the file comment), each sample
  /// once, with the on_context() sample as the dense loop hands it. The
  /// promise covers one window into a sink that enters it with no pending
  /// sample; a sample pending from an earlier render() call is paired with
  /// the window's first delivered one, which differs between the loops.
  [[nodiscard]] virtual std::optional<Millivolts> crossing_threshold() const {
    return std::nullopt;
  }
};

/// Renderer configuration.
struct RenderConfig {
  PeclLevels levels{};
  Picoseconds sample_step{0.5};
};

/// Renders `stream` over [t_begin, t_end), pushing samples into every sink.
/// The chain's stages start at steady state at t_begin and advance exactly
/// at transition boundaries; `chain` itself is only read, never stepped.
/// Sinks' finish() is invoked at the end.
void render(const EdgeStream& stream, const FilterChain& chain,
            const RenderConfig& config, Picoseconds t_begin,
            Picoseconds t_end, const std::vector<WaveformSink*>& sinks);

// ------------------------------------------------- chunked rendering ----
//
// A long acquisition can be split into fixed-size chunks of the sample
// grid and rendered chunk-by-chunk into private sinks that are merged in
// chunk order afterwards. The decomposition depends only on the window and
// these parameters — never on how many threads execute the chunks — so a
// serial and a parallel run produce byte-identical results (the rule
// tests/test_parallel.cpp enforces).
//
// Chunk 0 starts exactly like render(): chain reset to steady state at
// t_begin. Later chunks re-settle the chain over `settle_samples` grid
// samples before their window; the single-pole chain state contracts
// exponentially, so with the default settle depth (32768 samples = 16.4 ns
// at the 0.5 ps step, hundreds of time constants) the entry state matches
// the single-pass trajectory to the last bit. The sample just before each
// chunk window is handed to sinks via on_context() so pairwise sinks
// (crossing interpolation) see every adjacent-sample pair exactly once
// across chunk boundaries.

struct RenderChunking {
  /// Grid samples per chunk (task granularity). Must not depend on the
  /// worker count.
  std::size_t chunk_samples = 1u << 20;
  /// Chain re-settle depth before each chunk after the first. A floor of
  /// one settle sample is always applied to such chunks so the on_context()
  /// sample exists for every boundary; depth beyond that only affects how
  /// precisely the chain state converges to the single-pass trajectory.
  std::size_t settle_samples = 32768;
};

/// Number of grid samples render() would emit over [t_begin, t_end).
std::size_t render_sample_count(const RenderConfig& config,
                                Picoseconds t_begin, Picoseconds t_end);

/// Number of chunks the decomposition yields (>= 1 for non-empty windows).
std::size_t render_chunk_count(const RenderConfig& config, Picoseconds t_begin,
                               Picoseconds t_end,
                               const RenderChunking& chunking);

/// Renders chunk `chunk_index` of the decomposition into `sinks`: exactly
/// the samples with global grid index in [chunk*chunk_samples,
/// (chunk+1)*chunk_samples), preceded by one on_context() sample for chunks
/// past the first. finish() is NOT called — the caller merges the chunk
/// sinks in chunk order and finishes the merged result.
void render_chunk(const EdgeStream& stream, const FilterChain& chain,
                  const RenderConfig& config, Picoseconds t_begin,
                  Picoseconds t_end, const RenderChunking& chunking,
                  std::size_t chunk_index,
                  const std::vector<WaveformSink*>& sinks);

/// A sink whose per-sample fold is an inline, non-virtual member:
/// accumulate_chunked hands such a sink each sample directly.
template <typename Sink>
concept FoldsSamples = std::derived_from<Sink, WaveformSink> &&
                       requires(Sink& sink, Picoseconds t, Millivolts v) {
                         sink.fold_sample(t, v);
                       };

/// render_chunk() into one FoldsSamples sink, by the fused delivery: the
/// same samples and context sample, each handed to sink.fold_sample().
/// Defined in signal/walk.hpp, which the file that instantiates it includes,
/// so the dense loop is compiled there and not in render.cpp.
template <FoldsSamples Sink>
void render_chunk_folded(const EdgeStream& stream, const FilterChain& chain,
                         const RenderConfig& config, Picoseconds t_begin,
                         Picoseconds t_end, const RenderChunking& chunking,
                         std::size_t chunk_index, Sink& sink);

/// Renders every chunk of [t_begin, t_end) under util::parallel_for into a
/// private sink made by `make_sink()`, held in the chunk's own slot of a
/// pre-sized vector, then merges the chunk sinks in chunk order with
/// `Sink::merge`. The result is identical at every thread count.
/// An EyeDiagram (FoldsSamples) takes the fused delivery. The other sinks
/// accumulated this way (core::TestSystem's CrossingRecorder and
/// AmplitudeTracker) take render_chunk(), whose side-change delivery is the
/// recorder's fast path. finish() is not called.
template <typename Sink, typename MakeSink>
Sink accumulate_chunked(const EdgeStream& stream, const FilterChain& chain,
                        const RenderConfig& config, Picoseconds t_begin,
                        Picoseconds t_end, const RenderChunking& chunking,
                        const MakeSink& make_sink) {
  const std::size_t n_chunks =
      render_chunk_count(config, t_begin, t_end, chunking);
  std::vector<std::optional<Sink>> parts(n_chunks);
  util::parallel_for(n_chunks, [&](std::size_t c) {
    Sink& part = parts[c].emplace(make_sink());
    if constexpr (FoldsSamples<Sink>) {
      render_chunk_folded(stream, chain, config, t_begin, t_end, chunking, c,
                          part);
    } else {
      render_chunk(stream, chain, config, t_begin, t_end, chunking, c,
                   {&part});
    }
  });
  Sink out = std::move(*parts.front());
  for (std::size_t c = 1; c < n_chunks; ++c) {
    out.merge(*parts[c]);
  }
  return out;
}

}  // namespace mgt::sig
