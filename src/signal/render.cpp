#include "signal/render.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "signal/walk.hpp"
#include "util/error.hpp"

namespace mgt::sig {

using namespace internal;

namespace {

/// Samples accumulate into a SoA block and go out whole, so every sink sees
/// the block-partitioned delivery the on_block contract allows.
class Delivery {
public:
  explicit Delivery(const std::vector<WaveformSink*>& sinks) : sinks_(sinks) {}

  void push(Picoseconds t, Millivolts v) {
    block_.push(t.ps(), v.mv());
    if (block_.full()) {
      flush();
    }
  }

  void context(Picoseconds t, Millivolts v) {
    for (WaveformSink* sink : sinks_) {
      sink->on_context(t, v);
    }
  }

  void flush() {
    if (block_.size == 0) {
      return;
    }
    for (WaveformSink* sink : sinks_) {
      sink->on_block(block_);
    }
    block_.clear();
  }

private:
  const std::vector<WaveformSink*>& sinks_;
  SampleBlock block_;
};

/// The emit for sinks that all read only the crossings of threshold th.
/// It delivers, in time order and once each, the grid pair (k-1, k) around
/// every side change at k >= k_emit, a side change being a k whose
/// v_k < th differs from v_{k-1}'s; the on_context() sample at k_emit - 1
/// goes out exactly as in the dense loop and is never delivered again. No
/// side change lies between two delivered samples that are not grid
/// neighbours, so they lie on one side: a pairwise sink sees a crossing
/// only where the dense loop shows it one, between the same two samples.
/// A quiescent run holds one value, so one side: it is crossed whole, by
/// Walk::skip_rest where the window's grid steps allow it and by coast()
/// otherwise, and only its context sample, if it holds it, goes out.
class SideChanges {
public:
  using Output = Delivery;

  // The first sample reached, at k_start, is not stepped to, so its side
  // is the walk's starting one and it never changes side.
  template <std::size_t N>
  SideChanges(const Window& w, Delivery& out, const Walk<N>& walk,
              Millivolts th)
      : w_(w),
        out_(out),
        th_(th.mv()),
        skip_(walk.steps_within_dt_max(w.k_end)),
        v_last_(walk.output()),
        below_last_(v_last_ < th_) {}

  // Forced inline, as EverySample's.
  [[gnu::always_inline]] void operator()(std::size_t k, Picoseconds t,
                                         Millivolts v) {
    const bool below = v.mv() < th_;
    if (below != below_last_ && k >= w_.k_emit) {
      if (k_out_ != k - 1) {
        out_.push(Picoseconds{t_last_}, Millivolts{v_last_});
      }
      out_.push(t, v);
      k_out_ = k;
    } else if (k + 1 == w_.k_emit) {
      out_.context(t, v);
      k_out_ = k;
    }
    t_last_ = t.ps();
    v_last_ = v.mv();
    below_last_ = below;
  }

  template <std::size_t N>
  std::size_t rest(Walk<N>& walk, std::size_t k, Millivolts v) {
    if (!skip_) {
      return walk.coast(k, w_.k_end, [&](std::size_t j, double t_j) {
        (*this)(j, Picoseconds{t_j}, v);
      });
    }
    const std::size_t k_run = walk.skip_rest(k, w_.k_end);
    if (k + 1 < w_.k_emit && w_.k_emit <= k_run + 1) {
      out_.context(Picoseconds{walk.grid(w_.k_emit - 1)}, v);
      k_out_ = w_.k_emit - 1;
    }
    t_last_ = walk.grid(k_run);
    return k_run;
  }

private:
  const Window& w_;
  Delivery& out_;
  const double th_;
  const bool skip_;
  // The last sample reached, and the last one handed out, pushed or as
  // the context.
  double t_last_ = 0.0;
  double v_last_;
  bool below_last_;
  std::size_t k_out_ = w_.k_end;
};

/// The window for sinks that all read only strobes: delivers, in time order
/// and once each, the grid pair (K-1, K) around every strobe, K being the
/// first grid index at or after it and past k_emit (the sample at k_emit
/// has no predecessor in the delivered sequence, as in the dense loop).
/// The samples that absorb a transition are reached with Walk::to exactly
/// as the dense loop reaches them; every stretch between them is jumped.
/// No on_context() sample goes out.
template <std::size_t N>
void deliver_strobe_pairs(const Window& w, const FilterChain& chain,
                          const std::vector<WaveformSink*>& sinks) {
  Walk<N> walk(w.stream, chain, w.config, w.t_begin, w.k_start);
  std::vector<std::size_t> reads;
  for (const WaveformSink* sink : sinks) {
    for (const Picoseconds strobe : *sink->strobe_times()) {
      const std::size_t k =
          walk.first_at_or_after(strobe, w.k_emit + 1, w.k_end);
      if (k < w.k_end) {
        reads.push_back(k - 1);
        reads.push_back(k);
      }
    }
  }
  // One sampler's reads come sorted unless two strobes share a K.
  if (!std::is_sorted(reads.begin(), reads.end())) {
    std::sort(reads.begin(), reads.end());
  }
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  if (reads.empty()) {
    return;
  }

  typename Walk<N>::Powers powers(w.k_end - w.k_start);
  std::size_t k = w.k_start;
  walk.to(k);
  // The grid sample that absorbs the next transition: the first at or
  // after it past k. It stays the answer while jumps move k short of it,
  // so it is found again only once to(k_tr) has absorbed the transition.
  std::size_t k_tr =
      walk.first_at_or_after(Picoseconds{walk.t_next()}, k + 1, w.k_end);
  Delivery out(sinks);
  for (const std::size_t r : reads) {
    while (k < r) {
      const std::size_t free_to = std::min(k_tr - 1, r);
      if (free_to > k) {
        walk.jump(k, free_to, powers);
        k = free_to;
      }
      if (k < r) {
        k = k_tr;
        walk.to(k);
        k_tr = walk.first_at_or_after(Picoseconds{walk.t_next()}, k + 1,
                                      w.k_end);
      }
    }
    out.push(Picoseconds{walk.grid(r)}, Millivolts{walk.output()});
  }
  out.flush();
}

/// Picks the delivery loop once per window.
template <std::size_t N>
void walk_window(const Window& w, const FilterChain& chain,
                 const std::vector<WaveformSink*>& sinks) {
  const bool strobes_only =
      std::all_of(sinks.begin(), sinks.end(), [](const WaveformSink* s) {
        return s->strobe_times() != nullptr;
      });
  if (strobes_only) {
    deliver_strobe_pairs<N>(w, chain, sinks);
    return;
  }
  const std::optional<Millivolts> th = sinks.front()->crossing_threshold();
  const bool one_threshold =
      th && std::all_of(sinks.begin(), sinks.end(),
                        [&](const WaveformSink* s) {
                          return s->crossing_threshold() == th;
                        });
  if (one_threshold) {
    deliver<N, SideChanges>(w, chain, sinks, *th);
  } else {
    deliver<N, EverySample<Delivery>>(w, chain, sinks);
  }
}

using WindowFn = void (*)(const Window&, const FilterChain&,
                          const std::vector<WaveformSink*>&);

template <std::size_t... N>
constexpr std::array<WindowFn, sizeof...(N)> window_kernels(
    std::index_sequence<N...>) {
  return {&walk_window<N>...};
}

// One kernel per pole count 0..kMaxPoles; add_pole enforces the cap.
constexpr auto kKernels =
    window_kernels(std::make_index_sequence<FilterChain::kMaxPoles + 1>{});

void run_window(const Window& w, const FilterChain& chain,
                const std::vector<WaveformSink*>& sinks) {
  kKernels[chain.pole_count()](w, chain, sinks);
}

}  // namespace

std::size_t render_sample_count(const RenderConfig& config,
                                Picoseconds t_begin, Picoseconds t_end) {
  MGT_CHECK(t_end > t_begin, "render window must be non-empty");
  MGT_CHECK(config.sample_step.ps() > 0.0);
  const double dt = config.sample_step.ps();
  const auto n = static_cast<std::size_t>(
      static_cast<long long>((t_end.ps() - t_begin.ps()) / dt));
  // Sample times are monotone in the index, so only the last candidate can
  // land at or past t_end.
  if (t_begin.ps() + static_cast<double>(n) * dt < t_end.ps()) {
    return n + 1;
  }
  return n;
}

void render(const EdgeStream& stream, const FilterChain& chain,
            const RenderConfig& config, Picoseconds t_begin,
            Picoseconds t_end, const std::vector<WaveformSink*>& sinks) {
  const std::size_t total = render_sample_count(config, t_begin, t_end);
  obs::add_counter("render.calls");
  obs::add_counter("render.samples", total);
  run_window(Window{stream, config, t_begin, 0, 0, total}, chain, sinks);
  for (WaveformSink* sink : sinks) {
    sink->finish();
  }
}

std::size_t render_chunk_count(const RenderConfig& config, Picoseconds t_begin,
                               Picoseconds t_end,
                               const RenderChunking& chunking) {
  MGT_CHECK(chunking.chunk_samples > 0);
  const std::size_t total = render_sample_count(config, t_begin, t_end);
  return total == 0 ? 1
                    : (total + chunking.chunk_samples - 1) /
                          chunking.chunk_samples;
}

void render_chunk(const EdgeStream& stream, const FilterChain& chain,
                  const RenderConfig& config, Picoseconds t_begin,
                  Picoseconds t_end, const RenderChunking& chunking,
                  std::size_t chunk_index,
                  const std::vector<WaveformSink*>& sinks) {
  run_window(
      chunk_window(stream, config, t_begin, t_end, chunking, chunk_index),
      chain, sinks);
}

}  // namespace mgt::sig
