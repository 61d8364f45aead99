#include "signal/render.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace mgt::sig {

/// The exact advance of one window's filter chain along the grid
/// t_begin + k * dt, for a chain of N poles. The walk starts at grid sample
/// k_start with every stage at the steady state of the stream level there,
/// mid + gain * (v - mid), and owns its stage states for the whole window;
/// nothing is written back, since render() and render_chunk() own a copy
/// of the chain. Both delivery loops construct their walk as a local and
/// every method is inline, so no sample reloads or re-stores the states
/// through the chain's heap vector.
///
/// to() and at_rest() are FilterChain::step and FilterChain::at_rest with
/// the same operations, operands and order, so every dense sample is
/// byte-identical to stepping the chain per sample. The alpha memo stays
/// the only source of alphas; rows are copied by value, so a memo eviction
/// cannot leave a stale alpha behind.
template <std::size_t N>
class Walk {
public:
  Walk(const EdgeStream& stream, FilterChain& chain,
       const RenderConfig& config, Picoseconds t_begin, std::size_t k_start)
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
    s_.fill(input());
    if constexpr (N == 0) {
      pass_ = input();
    } else {
      std::copy_n(chain.alpha_row(Picoseconds{dt_max_}), N, a_max_.begin());
      std::copy_n(chain.alpha_row(Picoseconds{dt_}), N, a_step_.begin());
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
    double x = input();
    if constexpr (N == 0) {
      return pass_ == x;
    } else {
      for (std::size_t i = 0; i < N; ++i) {
        if (s_[i] + (x - s_[i]) * a_max_[i] != s_[i]) {
          return false;
        }
        x = s_[i];
      }
      return true;
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
  [[nodiscard]] double input() const { return level_ ? x_hi_ : x_lo_; }

  void step(double h) {
    double x = input();
    if constexpr (N == 0) {
      pass_ = x;
    } else {
      if (h != dt_step_) {
        dt_step_ = h;
        std::copy_n(chain_.alpha_row(Picoseconds{h}), N, a_step_.begin());
      }
      for (std::size_t i = 0; i < N; ++i) {
        s_[i] += (x - s_[i]) * a_step_[i];
        x = s_[i];
      }
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

/// Delivers every sample of the window, reaching each with Walk::to
/// except over quiescent runs.
template <std::size_t N>
void deliver_every_sample(const Window& w, FilterChain& chain) {
  Walk<N> walk(w.stream, chain, w.config, w.t_begin, w.k_start);
  Delivery out(w.sinks);
  auto emit = [&](std::size_t k, double t_sample, double v) {
    if (k >= w.k_emit) {
      out.push(t_sample, v);
    } else if (k + 1 == w.k_emit) {
      for (WaveformSink* sink : w.sinks) {
        sink->on_context(Picoseconds{t_sample}, Millivolts{v});
      }
    }
  };
  double v_prev = walk.output();
  for (std::size_t k = w.k_start; k < w.k_end; ++k) {
    const double t_sample = walk.to(k);
    const double v = walk.output();
    emit(k, t_sample, v);
    if (v == v_prev && walk.at_rest()) {
      k = walk.coast(k, w.k_end,
                     [&](std::size_t j, double t_j) { emit(j, t_j, v); });
    }
    v_prev = v;
  }
  out.flush();
}

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
  } else {
    deliver_every_sample<N>(w, chain);
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
