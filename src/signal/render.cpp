#include "signal/render.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace mgt::sig {

/// The exact advance of one window's filter chain along the grid
/// t_begin + k * dt, for a chain of N poles. The walk starts at grid sample
/// k_start with every stage at the steady state of the stream level there,
/// mid + gain * (v - mid), and owns its stage states for the whole window;
/// nothing is written back, since render() and render_chunk() own a copy
/// of the chain. Every delivery loop constructs its walk as a local, the
/// constructor and every method are inlined, and the per-stage loops of
/// the constructor, step() and at_rest() are folds over constant stage
/// indices with no closure holding the walk's address. So the compiler can
/// split the walk into scalars and keep the stage states and alpha rows of
/// the dense and side-change loops in registers, with no store and reload
/// of a state per sample (GCC 12 at -O3; jump() indexes by loop variables,
/// so the strobe loop keeps its walk in memory).
///
/// to() and at_rest() are FilterChain::step and FilterChain::at_rest with
/// the same operations, operands and order, so every dense sample is
/// byte-identical to stepping the chain per sample. The alpha memo stays
/// the only source of alphas; rows are copied by value, so a memo eviction
/// cannot leave a stale alpha behind.
template <std::size_t N>
class Walk {
public:
  // Inlined into every loop, so the walk's address never leaves it and
  // its members can be split into scalars.
  [[gnu::always_inline]] Walk(const EdgeStream& stream, FilterChain& chain,
                              const RenderConfig& config,
                              Picoseconds t_begin, std::size_t k_start)
      : trs_(stream.transitions()),
        chain_(chain),
        t_begin_(t_begin.ps()),
        dt_(config.sample_step.ps()),
        // Bound on the grid steps a quiescent run may skip: a hair above
        // dt, so the few-ulp spread of t_begin + k * dt stays under it,
        // yet tight enough that a stage stalled one ulp from its input
        // under alpha(dt) still passes at_rest (under a 2 * dt bound
        // almost none does).
        dt_max_(dt_ * (1.0 + 0x1p-20)),
        // step()'s gain-scaled input at each level, by its exact
        // expression.
        x_lo_(chain.midpoint_mv_ +
              chain.gain_ * (config.levels.vol.mv() - chain.midpoint_mv_)),
        x_hi_(chain.midpoint_mv_ +
              chain.gain_ * (config.levels.voh.mv() - chain.midpoint_mv_)),
        now_(grid(k_start)),
        level_(stream.level_at(Picoseconds{now_})),
        next_tr_(static_cast<std::size_t>(
            std::lower_bound(trs_.begin(), trs_.end(), Picoseconds{now_},
                             [](const Transition& tr, Picoseconds t) {
                               return tr.time < t;
                             }) -
            trs_.begin())),
        dt_step_(dt_) {
    const double x = input();
    if constexpr (N == 0) {
      pass_ = x;
    } else {
      fill(s_, x, Stages{});
      copy_row(a_max_, chain.alpha_row(Picoseconds{dt_max_}), Stages{});
      copy_row(a_step_, chain.alpha_row(Picoseconds{dt_}), Stages{});
    }
  }

  [[nodiscard]] double grid(std::size_t k) const {
    return t_begin_ + static_cast<double>(k) * dt_;
  }

  /// First grid index in [lo, hi) at or after t, else hi. Grid times are
  /// monotone in the index, so the estimate only needs nudging.
  [[nodiscard]] std::size_t first_at_or_after(double t, std::size_t lo,
                                              std::size_t hi) const {
    const double est = std::ceil((t - t_begin_) / dt_);
    std::size_t k = hi;
    if (est <= static_cast<double>(lo)) {
      k = lo;
    } else if (est < static_cast<double>(hi)) {
      k = static_cast<std::size_t>(est);
    }
    while (k > lo && grid(k - 1) >= t) {
      --k;
    }
    while (k < hi && grid(k) < t) {
      ++k;
    }
    return k;
  }

  /// Time of the next transition not yet absorbed, or +inf.
  [[nodiscard]] double t_next() const {
    return next_tr_ < trs_.size() ? trs_[next_tr_].time.ps()
                                  : std::numeric_limits<double>::infinity();
  }

  /// Advances exactly to grid sample k, at or after the last sample
  /// reached: steps to each transition at or before t_k and switches the
  /// level there, then steps to t_k. Returns t_k.
  double to(std::size_t k) {
    const double t_sample = grid(k);
    while (next_tr_ < trs_.size() && trs_[next_tr_].time.ps() <= t_sample) {
      const double t_tr = trs_[next_tr_].time.ps();
      if (t_tr > now_) {
        step(t_tr - now_);
        now_ = t_tr;
      }
      level_ = trs_[next_tr_].level;
      ++next_tr_;
    }
    if (t_sample > now_) {
      step(t_sample - now_);
      now_ = t_sample;
    }
    return t_sample;
  }

  [[nodiscard]] double output() const {
    if constexpr (N == 0) {
      return pass_;
    } else {
      return s_[N - 1];
    }
  }

  /// True when no stage can move under any step up to dt_max at the
  /// current level.
  [[nodiscard]] bool at_rest() const {
    if constexpr (N == 0) {
      return pass_ == input();
    } else {
      return stages_at_rest(input(), Stages{});
    }
  }

  /// Quiescent run from sample k, the walk at rest there: every step until
  /// the next transition leaves the output unchanged, so each following
  /// sample before it and within dt_max of the last is reached without
  /// stepping and handed to reach(j, t_j). Returns the last sample reached.
  template <typename Reach>
  std::size_t coast(std::size_t k, std::size_t k_end, const Reach& reach) {
    const double t_next_tr = t_next();
    while (k + 1 < k_end) {
      const double t_j = grid(k + 1);
      if (t_j >= t_next_tr || t_j - now_ > dt_max_) {
        break;
      }
      ++k;
      reach(k, t_j);
      now_ = t_j;
    }
    return k;
  }

  /// True when every grid step of the window, t_k - t_{k-1} for k < k_end,
  /// is at most dt_max, so that a coast() ends only at the sample before
  /// the next transition or at the window's end. A grid time
  /// fl(t_begin + fl(k * dt)) is rounded twice, each time by at most half
  /// an ulp of a magnitude under T = 2 * (|t_begin| + k_end * dt), so a
  /// step differs from dt by at most 2 * ulp(T); dt_max - dt is exact by
  /// Sterbenz's lemma, and the step's own subtraction rounds monotonically.
  [[nodiscard]] bool steps_within_dt_max(std::size_t k_end) const {
    const double t_max =
        2.0 * (std::abs(t_begin_) + static_cast<double>(k_end) * dt_);
    const double ulp =
        std::nextafter(t_max, std::numeric_limits<double>::infinity()) -
        t_max;
    return 2.0 * ulp <= dt_max_ - dt_;
  }

  /// coast() from sample k in O(1), for a window that passes
  /// steps_within_dt_max: moves the walk to the last sample the coast
  /// would reach, the one before the first grid sample at or after the
  /// next transition (or the window's last), and returns it. The samples
  /// between are not visited; each holds the output at k.
  std::size_t skip_rest(std::size_t k, std::size_t k_end) {
    const std::size_t k_last = first_at_or_after(t_next(), k + 1, k_end) - 1;
    now_ = grid(k_last);
    return k_last;
  }

  // In deviation form d = s - x one step of dt at constant input x is
  // d_i' = (1 - a_i) d_i + a_i d_{i-1}' (d_{-1}' = 0): a lower-triangular
  // map M of the alphas alone, the same at both levels.
  using Matrix = std::array<std::array<double, N>, N>;

  /// Advances from grid sample `from` to k, with no transition in
  /// (t_from, t_k], by k - from steps of exactly dt at the current level:
  /// one product with M^(2^j) per set bit j of the count. `powers[j]`
  /// holds M^(2^j), squared up on first need and kept across calls.
  void jump(std::size_t from, std::size_t k, std::vector<Matrix>& powers) {
    const double x = input();
    if constexpr (N == 0) {
      pass_ = x;
    } else {
      if (powers.empty()) {
        const double* alpha = chain_.alpha_row(Picoseconds{dt_});
        Matrix m{};
        for (std::size_t i = 0; i < N; ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            m[i][j] = alpha[i] * m[i - 1][j];
          }
          m[i][i] = 1.0 - alpha[i];
        }
        powers.push_back(m);
      }
      std::array<double, N> d{};
      for (std::size_t i = 0; i < N; ++i) {
        d[i] = s_[i] - x;
      }
      for (std::size_t p = 0, n = k - from; n != 0; ++p, n >>= 1) {
        if (p == powers.size()) {
          const Matrix& a = powers.back();
          Matrix sq{};
          for (std::size_t i = 0; i < N; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
              for (std::size_t l = j; l <= i; ++l) {
                sq[i][j] += a[i][l] * a[l][j];
              }
            }
          }
          powers.push_back(sq);
        }
        if ((n & 1) != 0) {
          const Matrix& a = powers[p];
          std::array<double, N> out{};
          for (std::size_t i = 0; i < N; ++i) {
            for (std::size_t l = 0; l <= i; ++l) {
              out[i] += a[i][l] * d[l];
            }
          }
          d = out;
        }
      }
      for (std::size_t i = 0; i < N; ++i) {
        s_[i] = x + d[i];
      }
    }
    now_ = grid(k);
  }

private:
  // The per-stage loops, as folds over the constant indices of Stages.
  // No closure holds the walk's address, so once inlined the stage
  // states and alpha rows are plain scalars the compiler may keep in
  // registers.
  using Stages = std::make_index_sequence<N>;

  template <std::size_t... I>
  static void fill(std::array<double, N>& to, double x,
                   std::index_sequence<I...>) {
    ((to[I] = x), ...);
  }

  template <std::size_t... I>
  static void copy_row(std::array<double, N>& to, const double* row,
                       std::index_sequence<I...>) {
    ((to[I] = row[I]), ...);
  }

  /// FilterChain::step's stage loop: each stage moves toward its input by
  /// its alpha, and its new state is the next stage's input.
  template <std::size_t... I>
  void step_stages(double x, std::index_sequence<I...>) {
    ((x = s_[I] += (x - s_[I]) * a_step_[I]), ...);
  }

  /// FilterChain::at_rest's stage loop: stops at the first stage that a
  /// step of dt_max would move, else hands its state on as the next input.
  template <std::size_t... I>
  [[nodiscard]] bool stages_at_rest(double x,
                                    std::index_sequence<I...>) const {
    return ((s_[I] + (x - s_[I]) * a_max_[I] == s_[I] && (x = s_[I], true)) &&
            ...);
  }

  [[nodiscard]] double input() const { return level_ ? x_hi_ : x_lo_; }

  void step(double h) {
    if constexpr (N == 0) {
      pass_ = input();
    } else {
      if (h != dt_step_) {
        dt_step_ = h;
        copy_row(a_step_, chain_.alpha_row(Picoseconds{h}), Stages{});
      }
      step_stages(input(), Stages{});
    }
  }

  const std::vector<Transition>& trs_;
  FilterChain& chain_;
  const double t_begin_;
  const double dt_;
  const double dt_max_;
  const double x_lo_;
  const double x_hi_;
  double now_;              // time the stage states stand at, ps
  bool level_;              // stream level at now_
  std::size_t next_tr_;     // first transition not yet absorbed
  double pass_ = 0.0;       // N == 0: the last step's gain-scaled input
  std::array<double, N> s_{};       // stage states, mV
  std::array<double, N> a_max_{};   // alpha row of dt_max, for at_rest
  std::array<double, N> a_step_{};  // alpha row of the last step's dt
  double dt_step_;
};

namespace {

/// Samples accumulate into a SoA block and go out whole, so every sink sees
/// the block-partitioned delivery the on_block contract allows.
class Delivery {
public:
  explicit Delivery(const std::vector<WaveformSink*>& sinks) : sinks_(sinks) {}

  void push(double t, double v) {
    block_.push(t, v);
    if (block_.full()) {
      flush();
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

/// One window of the grid t_begin + k * dt: the chain starts at grid sample
/// k_start, samples from k_emit up to k_end go to the sinks, and the one
/// just before k_emit primes them as on_context().
struct Window {
  const EdgeStream& stream;
  const RenderConfig& config;
  Picoseconds t_begin;
  std::size_t k_start;
  std::size_t k_emit;
  std::size_t k_end;
  const std::vector<WaveformSink*>& sinks;
};

void send_context(const Window& w, double t_sample, double v) {
  for (WaveformSink* sink : w.sinks) {
    sink->on_context(Picoseconds{t_sample}, Millivolts{v});
  }
}

/// Reaches every grid sample of the window with Walk::to, in order, except
/// over quiescent runs, and hands each sample it reaches to emit(k, t_k,
/// v_k), which pushes what the sinks read to `out`. From a sample at rest,
/// emit.rest(walk, k, v) crosses the run and returns the last sample it
/// reached. The block stays apart from the emit, whose state the compiler
/// can then keep in registers.
template <std::size_t N, typename Emit, typename... Args>
void deliver(const Window& w, FilterChain& chain, const Args&... args) {
  Walk<N> walk(w.stream, chain, w.config, w.t_begin, w.k_start);
  Delivery out(w.sinks);
  Emit emit(w, out, walk, args...);
  double v_prev = walk.output();
  for (std::size_t k = w.k_start; k < w.k_end; ++k) {
    const double t_sample = walk.to(k);
    const double v = walk.output();
    emit(k, t_sample, v);
    if (v == v_prev && walk.at_rest()) {
      k = emit.rest(walk, k, v);
    }
    v_prev = v;
  }
  out.flush();
}

/// The dense loop's emit: every sample from k_emit on goes out, the one
/// before as the on_context() sample; a quiescent run is coasted sample by
/// sample.
class EverySample {
public:
  template <std::size_t N>
  EverySample(const Window& w, Delivery& out, const Walk<N>& /*walk*/)
      : w_(w), out_(out) {}

  // Forced inline, as it is called at two sites per loop: out of line,
  // the emit's state would go through memory on every sample.
  [[gnu::always_inline]] void operator()(std::size_t k, double t_sample,
                                         double v) {
    if (k >= w_.k_emit) {
      out_.push(t_sample, v);
    } else if (k + 1 == w_.k_emit) {
      send_context(w_, t_sample, v);
    }
  }

  template <std::size_t N>
  std::size_t rest(Walk<N>& walk, std::size_t k, double v) {
    return walk.coast(k, w_.k_end, [&](std::size_t j, double t_j) {
      (*this)(j, t_j, v);
    });
  }

private:
  const Window& w_;
  Delivery& out_;
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
  // The first sample reached, at k_start, is not stepped to, so its side
  // is the walk's starting one and it never changes side.
  template <std::size_t N>
  SideChanges(const Window& w, Delivery& out, const Walk<N>& walk, double th)
      : w_(w),
        out_(out),
        th_(th),
        skip_(walk.steps_within_dt_max(w.k_end)),
        v_last_(walk.output()),
        below_last_(v_last_ < th) {}

  // Forced inline, as EverySample's.
  [[gnu::always_inline]] void operator()(std::size_t k, double t_sample,
                                         double v) {
    const bool below = v < th_;
    if (below != below_last_ && k >= w_.k_emit) {
      if (k_out_ != k - 1) {
        out_.push(t_last_, v_last_);
      }
      out_.push(t_sample, v);
      k_out_ = k;
    } else if (k + 1 == w_.k_emit) {
      send_context(w_, t_sample, v);
      k_out_ = k;
    }
    t_last_ = t_sample;
    v_last_ = v;
    below_last_ = below;
  }

  template <std::size_t N>
  std::size_t rest(Walk<N>& walk, std::size_t k, double v) {
    if (!skip_) {
      return walk.coast(k, w_.k_end, [&](std::size_t j, double t_j) {
        (*this)(j, t_j, v);
      });
    }
    const std::size_t k_run = walk.skip_rest(k, w_.k_end);
    if (k + 1 < w_.k_emit && w_.k_emit <= k_run + 1) {
      send_context(w_, walk.grid(w_.k_emit - 1), v);
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
void deliver_strobe_pairs(const Window& w, FilterChain& chain) {
  Walk<N> walk(w.stream, chain, w.config, w.t_begin, w.k_start);
  std::vector<std::size_t> reads;
  for (const WaveformSink* sink : w.sinks) {
    for (const Picoseconds strobe : *sink->strobe_times()) {
      const std::size_t k =
          walk.first_at_or_after(strobe.ps(), w.k_emit + 1, w.k_end);
      if (k < w.k_end) {
        reads.push_back(k - 1);
        reads.push_back(k);
      }
    }
  }
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  if (reads.empty()) {
    return;
  }

  std::vector<typename Walk<N>::Matrix> powers;
  std::size_t k = w.k_start;
  walk.to(k);
  Delivery out(w.sinks);
  for (const std::size_t r : reads) {
    while (k < r) {
      // The grid sample that absorbs the next transition.
      const std::size_t k_tr =
          walk.first_at_or_after(walk.t_next(), k + 1, w.k_end);
      const std::size_t free_to = std::min(k_tr - 1, r);
      if (free_to > k) {
        walk.jump(k, free_to, powers);
        k = free_to;
      }
      if (k < r) {
        k = k_tr;
        walk.to(k);
      }
    }
    out.push(walk.grid(r), walk.output());
  }
  out.flush();
}

/// Picks the delivery loop once per window.
template <std::size_t N>
void walk_window(const Window& w, FilterChain& chain) {
  const bool strobes_only =
      std::all_of(w.sinks.begin(), w.sinks.end(), [](const WaveformSink* s) {
        return s->strobe_times() != nullptr;
      });
  if (strobes_only) {
    deliver_strobe_pairs<N>(w, chain);
    return;
  }
  const std::optional<Millivolts> th = w.sinks.front()->crossing_threshold();
  const bool one_threshold =
      th && std::all_of(w.sinks.begin(), w.sinks.end(),
                        [&](const WaveformSink* s) {
                          return s->crossing_threshold() == th;
                        });
  if (one_threshold) {
    deliver<N, SideChanges>(w, chain, th->mv());
  } else {
    deliver<N, EverySample>(w, chain);
  }
}

using WindowFn = void (*)(const Window&, FilterChain&);

template <std::size_t... N>
constexpr std::array<WindowFn, sizeof...(N)> window_kernels(
    std::index_sequence<N...>) {
  return {&walk_window<N>...};
}

// One kernel per pole count 0..kMaxPoles; add_pole enforces the cap.
constexpr auto kKernels =
    window_kernels(std::make_index_sequence<FilterChain::kMaxPoles + 1>{});

void run_window(const EdgeStream& stream, FilterChain& chain,
                const RenderConfig& config, Picoseconds t_begin,
                std::size_t k_start, std::size_t k_emit, std::size_t k_end,
                const std::vector<WaveformSink*>& sinks) {
  kKernels[chain.pole_count()](
      Window{stream, config, t_begin, k_start, k_emit, k_end, sinks}, chain);
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

void render(const EdgeStream& stream, FilterChain chain,
            const RenderConfig& config, Picoseconds t_begin,
            Picoseconds t_end, const std::vector<WaveformSink*>& sinks) {
  const std::size_t total = render_sample_count(config, t_begin, t_end);
  obs::add_counter("render.calls");
  obs::add_counter("render.samples", total);
  run_window(stream, chain, config, t_begin, 0, 0, total, sinks);
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

void render_chunk(const EdgeStream& stream, FilterChain chain,
                  const RenderConfig& config, Picoseconds t_begin,
                  Picoseconds t_end, const RenderChunking& chunking,
                  std::size_t chunk_index,
                  const std::vector<WaveformSink*>& sinks) {
  const std::size_t total = render_sample_count(config, t_begin, t_end);
  MGT_CHECK(chunk_index <
                render_chunk_count(config, t_begin, t_end, chunking),
            "chunk index out of range");
  const std::size_t k0 = chunk_index * chunking.chunk_samples;
  const std::size_t k1 = std::min(k0 + chunking.chunk_samples, total);
  // At least one settle sample for chunks past the first, whatever the
  // configured depth: the sample at k0-1 doubles as the on_context() sample,
  // and without it pairwise sinks would silently drop every adjacent pair
  // straddling a chunk boundary (the settle_samples=0 regression in
  // tests/test_render_equiv.cpp). The configured depth remains the accuracy
  // knob for chain-state convergence.
  const std::size_t settle =
      chunk_index == 0
          ? 0
          : std::min(std::max<std::size_t>(chunking.settle_samples, 1), k0);
  // Counter additions are commutative, so these are worker-thread safe:
  // render_chunk is the unit parallel_for fans out over.
  obs::add_counter("render.chunks");
  obs::add_counter("render.chunk_samples", k1 - k0);

  run_window(stream, chain, config, t_begin, k0 - settle, k0, k1, sinks);
}

}  // namespace mgt::sig
