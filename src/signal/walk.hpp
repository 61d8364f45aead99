// The renderer's window walk, internal to the signal layer.
//
// Walk<N>, the window geometry, the chunk-window arithmetic, the dense
// delivery loop deliver<N, Emit> and its every-sample emit live here, in a
// header, so that two deliveries can share them from different translation
// units: render.cpp instantiates them for WaveformSink outputs (the block
// delivery, the crossing side changes, the strobe pairs), and
// render_chunk_folded() instantiates the dense loop for a sink with an
// inline per-sample fold where accumulate_chunked is called. The fused loop
// hands every sample straight to Sink::fold_sample, with no SampleBlock and
// no virtual call; it is kept out of render.cpp because adding it there
// moved that file's other loops and slowed the crossing side-change loop,
// whose instructions it did not change. Include it only in a file that
// compiles a walk: render.cpp, and a file that instantiates
// accumulate_chunked for a FoldsSamples sink (analysis/eye.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/render.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mgt::sig::internal {

/// The exact advance of one window's filter chain along the grid
/// t_begin + k * dt, for a chain of N poles. The walk starts at grid sample
/// k_start with every stage at the steady state of the stream level there,
/// mid + gain * (v - mid), and owns its stage states for the whole window;
/// the chain itself is only read, for its gain, midpoint and alphas.
/// Every delivery loop constructs its walk as a local, the constructor is
/// inlined, and the per-stage loops of the constructor, step(), at_rest()
/// and jump() are folds over constant stage indices with no closure holding
/// the walk's address. So where to() is inlined too, the compiler can split
/// the walk into scalars and keep the stage states and alpha rows of the
/// dense and side-change loops in registers, with no store and reload of a
/// state per sample (GCC 12 at -O3). The strobe loop calls to() out of
/// line, which takes the walk's address, so it keeps its walk in memory;
/// each jump() still runs its deviations in registers. Inlining to() there
/// (forced, or by flattening the loop) splits that walk too, but changes
/// the code GCC gives the dense and side-change loops beside it, and the
/// crossing loop ran slower (DESIGN §4).
///
/// to() and at_rest() are FilterChain::step and FilterChain::at_rest with
/// the same operations, operands and order, so every dense sample is
/// byte-identical to stepping the chain per sample. FilterChain::alpha_row
/// is the only source of alphas: the walk holds the rows of the grid step
/// dt and the rest bound dt_max, both computed in its constructor, and
/// computes the row of any other step (an edge fragment, or a grid step a
/// few ulps off dt) for that step alone. alpha_row is a pure function of
/// dt, so each row is the very double FilterChain::step would use.
template <std::size_t N>
class Walk {
public:
  // Inlined into every loop, so the walk's address never leaves it and
  // its members can be split into scalars.
  [[gnu::always_inline]] Walk(const EdgeStream& stream,
                              const FilterChain& chain,
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
            trs_.begin())) {
    const Millivolts x{input()};
    if constexpr (N == 0) {
      pass_ = x.mv();
    } else {
      fill(s_, x, Stages{});
      copy_row(a_max_, chain, Picoseconds{dt_max_}, Stages{});
      copy_row(a_dt_, chain, Picoseconds{dt_}, Stages{});
    }
  }

  [[nodiscard]] double grid(std::size_t k) const {
    return t_begin_ + static_cast<double>(k) * dt_;
  }

  /// First grid index in [lo, hi) at or after t, else hi. Grid times are
  /// monotone in the index, so the estimate only needs nudging.
  [[nodiscard]] std::size_t first_at_or_after(Picoseconds t, std::size_t lo,
                                              std::size_t hi) const {
    const double est = std::ceil((t.ps() - t_begin_) / dt_);
    std::size_t k = hi;
    if (est <= static_cast<double>(lo)) {
      k = lo;
    } else if (est < static_cast<double>(hi)) {
      k = static_cast<std::size_t>(est);
    }
    while (k > lo && grid(k - 1) >= t.ps()) {
      --k;
    }
    while (k < hi && grid(k) < t.ps()) {
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
        step(Picoseconds{t_tr - now_});
        now_ = t_tr;
      }
      level_ = trs_[next_tr_].level;
      ++next_tr_;
    }
    if (t_sample > now_) {
      step(Picoseconds{t_sample - now_});
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
      return stages_at_rest(Millivolts{input()}, Stages{});
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
    const std::size_t k_last =
        first_at_or_after(Picoseconds{t_next()}, k + 1, k_end) - 1;
    now_ = grid(k_last);
    return k_last;
  }

  // In deviation form d = s - x one step of dt at constant input x is
  // d_i' = (1 - a_i) d_i + a_i d_{i-1}' (d_{-1}' = 0): a lower-triangular
  // map M of the alphas alone, the same at both levels.
  using Matrix = std::array<std::array<double, N>, N>;

  /// The powers M^(2^j) a window's jumps use: bit_width(n) matrices,
  /// allocated once, enough for any jump of fewer than n grid steps. The
  /// first `squared` of them hold M^(2^j), each squared up on first need.
  struct Powers {
    explicit Powers(std::size_t n) : m(std::bit_width(n)) {}
    std::vector<Matrix> m;
    std::size_t squared = 0;
  };

  /// Advances from grid sample `from` to k, with no transition in
  /// (t_from, t_k], by k - from steps of exactly dt at the current level:
  /// one product with M^(2^j) per set bit j of the count, which must be
  /// under the n `powers` was sized for.
  void jump(std::size_t from, std::size_t k, Powers& powers) {
    const Millivolts x{input()};
    if constexpr (N == 0) {
      pass_ = x.mv();
    } else {
      std::array<double, N> d;
      deviations(d, x, Stages{});
      for (std::size_t p = 0, n = k - from; n != 0; ++p, n >>= 1) {
        if (p == powers.squared) {
          square_up(powers);
        }
        if ((n & 1) != 0) {
          multiply(powers.m[p], d, Stages{});
        }
      }
      settle(d, x, Stages{});
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
  static void fill(std::array<double, N>& to, Millivolts x,
                   std::index_sequence<I...>) {
    ((to[I] = x.mv()), ...);
  }

  template <std::size_t... I>
  static void copy(std::array<double, N>& to,
                   const std::array<double, N>& from,
                   std::index_sequence<I...>) {
    ((to[I] = from[I]), ...);
  }

  /// Copies the first N alphas of step dt.
  template <std::size_t... I>
  static void copy_row(std::array<double, N>& to, const FilterChain& chain,
                       Picoseconds dt, std::index_sequence<I...>) {
    const auto row = chain.alpha_row(dt);
    ((to[I] = row[I]), ...);
  }

  /// jump()'s per-stage loops: the deviations d = s - x, their product
  /// with a power of M, and the states x + d they move the stages to.
  /// Row I of the product adds its terms left to right, starting from the
  /// first term, not from 0.0 + it: the two differ only where that term is
  /// -0, and then only in the sign of a zero row, which x + d erases
  /// (DESIGN §4).
  template <std::size_t... I>
  void deviations(std::array<double, N>& d, Millivolts x,
                  std::index_sequence<I...>) const {
    ((d[I] = s_[I] - x.mv()), ...);
  }

  template <std::size_t I, std::size_t... L>
  static double row(const Matrix& a, const std::array<double, N>& d,
                    std::index_sequence<L...>) {
    double sum = a[I][0] * d[0];
    ((sum += a[I][L + 1] * d[L + 1]), ...);
    return sum;
  }

  template <std::size_t... I>
  static void multiply(const Matrix& a, std::array<double, N>& d,
                       std::index_sequence<I...>) {
    const std::array<double, N> out{
        row<I>(a, d, std::make_index_sequence<I>{})...};
    copy(d, out, Stages{});
  }

  template <std::size_t... I>
  void settle(const std::array<double, N>& d, Millivolts x,
              std::index_sequence<I...>) {
    ((s_[I] = x.mv() + d[I]), ...);
  }

  /// Fills the next power: M itself from the grid step's alphas, else the
  /// square of the last one, summed over the triangle it can be nonzero on.
  void square_up(Powers& powers) const {
    const std::size_t p = powers.squared++;
    Matrix& to = powers.m[p];
    if (p == 0) {
      // A local copy, so no loop variable indexes a member of the walk.
      std::array<double, N> a;
      copy(a, a_dt_, Stages{});
      for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          to[i][j] = a[i] * to[i - 1][j];
        }
        to[i][i] = 1.0 - a[i];
      }
      return;
    }
    const Matrix& from = powers.m[p - 1];
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        for (std::size_t l = j; l <= i; ++l) {
          to[i][j] += from[i][l] * from[l][j];
        }
      }
    }
  }

  /// FilterChain::step's stage loop: each stage moves toward its input by
  /// its alpha, and its new state is the next stage's input.
  template <std::size_t... I>
  void step_stages(Millivolts input, const std::array<double, N>& alpha,
                   std::index_sequence<I...>) {
    double x = input.mv();
    ((x = s_[I] += (x - s_[I]) * alpha[I]), ...);
  }

  /// FilterChain::at_rest's stage loop: stops at the first stage that a
  /// step of dt_max would move, else hands its state on as the next input.
  template <std::size_t... I>
  [[nodiscard]] bool stages_at_rest(Millivolts input,
                                    std::index_sequence<I...>) const {
    double x = input.mv();
    return ((s_[I] + (x - s_[I]) * a_max_[I] == s_[I] && (x = s_[I], true)) &&
            ...);
  }

  [[nodiscard]] double input() const { return level_ ? x_hi_ : x_lo_; }

  void step(Picoseconds h) {
    if constexpr (N == 0) {
      pass_ = input();
    } else {
      // Both branches fill one local row for one stage fold: with a fold
      // per branch, to() grew too large to inline at 7 and 8 poles and the
      // dense walk stayed in memory.
      std::array<double, N> alpha;
      if (h.ps() == dt_) {
        copy(alpha, a_dt_, Stages{});
      } else {
        copy_row(alpha, chain_, h, Stages{});
      }
      step_stages(Millivolts{input()}, alpha, Stages{});
    }
  }

  const std::vector<Transition>& trs_;
  const FilterChain& chain_;
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
  std::array<double, N> a_dt_{};   // alpha row of dt, the grid step
  std::array<double, N> a_max_{};  // alpha row of dt_max, for at_rest
};

/// One window of the grid t_begin + k * dt: the chain starts at grid sample
/// k_start, samples from k_emit up to k_end go out, and the one just before
/// k_emit primes the sinks as on_context().
struct Window {
  const EdgeStream& stream;
  const RenderConfig& config;
  Picoseconds t_begin;
  std::size_t k_start;
  std::size_t k_emit;
  std::size_t k_end;
};

/// The window of chunk `chunk_index` of [t_begin, t_end): exactly the
/// samples with global grid index in [chunk * chunk_samples, (chunk + 1) *
/// chunk_samples), after a re-settle run for chunks past the first. Counts
/// the chunk and its samples under render.chunks and render.chunk_samples.
inline Window chunk_window(const EdgeStream& stream,
                           const RenderConfig& config, Picoseconds t_begin,
                           Picoseconds t_end, const RenderChunking& chunking,
                           std::size_t chunk_index) {
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
  // a chunk is the unit parallel_for fans out over.
  obs::add_counter("render.chunks");
  obs::add_counter("render.chunk_samples", k1 - k0);
  return Window{stream, config, t_begin, k0 - settle, k0, k1};
}

/// Reaches every grid sample of the window with Walk::to, in order, except
/// over quiescent runs, and hands each sample it reaches to emit(k, t_k,
/// v_k), which pushes what the sinks read to its output, an
/// Emit::Output made from `target` and flushed at the end. From a sample
/// at rest, emit.rest(walk, k, v) crosses the run and returns the last
/// sample it reached. The output stays apart from the emit, whose state
/// the compiler can then keep in registers.
template <std::size_t N, typename Emit, typename Target, typename... Args>
void deliver(const Window& w, const FilterChain& chain, Target& target,
             const Args&... args) {
  Walk<N> walk(w.stream, chain, w.config, w.t_begin, w.k_start);
  typename Emit::Output out(target);
  Emit emit(w, out, walk, args...);
  double v_prev = walk.output();
  for (std::size_t k = w.k_start; k < w.k_end; ++k) {
    const double t_sample = walk.to(k);
    const double v = walk.output();
    emit(k, Picoseconds{t_sample}, Millivolts{v});
    if (v == v_prev && walk.at_rest()) {
      k = emit.rest(walk, k, Millivolts{v});
    }
    v_prev = v;
  }
  out.flush();
}

/// The dense loop's emit: every sample from k_emit on goes to out.push(),
/// the one before to out.context(); a quiescent run is coasted sample by
/// sample.
template <typename Out>
class EverySample {
public:
  using Output = Out;

  template <std::size_t N>
  EverySample(const Window& w, Out& out, const Walk<N>& /*walk*/)
      : w_(w), out_(out) {}

  // Forced inline, as it is called at two sites per loop: out of line,
  // the emit's state would go through memory on every sample.
  [[gnu::always_inline]] void operator()(std::size_t k, Picoseconds t,
                                         Millivolts v) {
    if (k >= w_.k_emit) {
      out_.push(t, v);
    } else if (k + 1 == w_.k_emit) {
      out_.context(t, v);
    }
  }

  template <std::size_t N>
  std::size_t rest(Walk<N>& walk, std::size_t k, Millivolts v) {
    return walk.coast(k, w_.k_end, [&](std::size_t j, double t_j) {
      (*this)(j, Picoseconds{t_j}, v);
    });
  }

private:
  const Window& w_;
  Out& out_;
};

/// The fused output: each sample goes straight into the sink's inline
/// per-sample fold.
template <typename Sink>
class FoldInto {
public:
  explicit FoldInto(Sink& sink) : sink_(sink) {}

  [[gnu::always_inline]] void push(Picoseconds t, Millivolts v) {
    sink_.fold_sample(t, v);
  }
  void context(Picoseconds t, Millivolts v) { sink_.on_context(t, v); }
  void flush() {}

private:
  Sink& sink_;
};

}  // namespace mgt::sig::internal

namespace mgt::sig {

template <FoldsSamples Sink>
void render_chunk_folded(const EdgeStream& stream, const FilterChain& chain,
                         const RenderConfig& config, Picoseconds t_begin,
                         Picoseconds t_end, const RenderChunking& chunking,
                         std::size_t chunk_index, Sink& sink) {
  const internal::Window w = internal::chunk_window(
      stream, config, t_begin, t_end, chunking, chunk_index);
  // One dense loop per pole count 0..kMaxPoles; add_pole enforces the cap.
  using Emit = internal::EverySample<internal::FoldInto<Sink>>;
  constexpr auto kKernels = []<std::size_t... N>(std::index_sequence<N...>) {
    return std::array{&internal::deliver<N, Emit, Sink>...};
  }(std::make_index_sequence<FilterChain::kMaxPoles + 1>{});
  kKernels[chain.pole_count()](w, chain, sink);
}

}  // namespace mgt::sig
