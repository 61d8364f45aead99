#include "signal/render.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace mgt::sig {

/// Core sample loop shared by render() and render_chunk(), one kernel per
/// pole count: steps the chain through grid samples [k_start, k_end) of the
/// grid anchored at t_begin, delivering samples with index >= k_emit to
/// sinks (the one just before k_emit goes out as context). The chain is
/// reset to the steady state of the stream level at sample k_start.
///
/// The stage states live in locals for the whole window and go back into
/// the chain at its end. The step and at_rest loops are FilterChain::step
/// and FilterChain::at_rest with the same operations, operands and order,
/// so every sample is byte-identical to stepping the chain per sample. The
/// alpha memo stays the only source of alphas; rows are copied by value,
/// so a memo eviction cannot leave a stale alpha behind.
class WindowKernel {
public:
  template <std::size_t N>
  static void run(const EdgeStream& stream, FilterChain& chain,
                  const RenderConfig& config, Picoseconds t_begin,
                  std::size_t k_start, std::size_t k_emit, std::size_t k_end,
                  const std::vector<WaveformSink*>& sinks);

  /// The same window for sinks that all read only strobes: delivers, in
  /// time order and once each, the grid pair (K-1, K) around every strobe,
  /// K being the first grid index at or after it and past k_emit (the
  /// sample at k_emit has no predecessor in the delivered sequence, as in
  /// run<N>). The samples that absorb a transition are stepped exactly as
  /// run<N> steps them; every stretch between them is jumped with powers of
  /// the one-grid-step map. No on_context() sample goes out, and the chain
  /// state is not written back: both callers own a copy of the chain.
  template <std::size_t N>
  static void run_sparse(const EdgeStream& stream, FilterChain& chain,
                         const RenderConfig& config, Picoseconds t_begin,
                         std::size_t k_start, std::size_t k_emit,
                         std::size_t k_end,
                         const std::vector<WaveformSink*>& sinks);

private:
  /// Where both kernels start a window at grid time t_start.
  struct Start {
    std::size_t next_tr;  // first transition at or after t_start
    bool level;           // stream level at t_start
    double x_lo;          // step()'s gain-scaled input at each level
    double x_hi;
  };
  /// Resets `chain` to the steady state of the stream level at t_start.
  static Start start(const EdgeStream& stream, FilterChain& chain,
                     const RenderConfig& config, double t_start);
};

WindowKernel::Start WindowKernel::start(const EdgeStream& stream,
                                        FilterChain& chain,
                                        const RenderConfig& config,
                                        double t_start) {
  const auto& trs = stream.transitions();
  const bool level = stream.level_at(Picoseconds{t_start});
  chain.reset(level ? config.levels.voh : config.levels.vol);
  // step()'s gain-scaled input for each level, by its exact expression.
  const double mid = chain.midpoint_mv_;
  const double gain = chain.gain_;
  return Start{
      .next_tr = static_cast<std::size_t>(
          std::lower_bound(trs.begin(), trs.end(), Picoseconds{t_start},
                           [](const Transition& tr, Picoseconds t) {
                             return tr.time < t;
                           }) -
          trs.begin()),
      .level = level,
      .x_lo = mid + gain * (config.levels.vol.mv() - mid),
      .x_hi = mid + gain * (config.levels.voh.mv() - mid),
  };
}

template <std::size_t N>
void WindowKernel::run(const EdgeStream& stream, FilterChain& chain,
                       const RenderConfig& config, Picoseconds t_begin,
                       std::size_t k_start, std::size_t k_emit,
                       std::size_t k_end,
                       const std::vector<WaveformSink*>& sinks) {
  const double dt = config.sample_step.ps();

  const double t_start =
      t_begin.ps() + static_cast<double>(k_start) * dt;

  const auto& trs = stream.transitions();
  const Start st = start(stream, chain, config, t_start);
  std::size_t next_tr = st.next_tr;
  bool level = st.level;
  const double x_lo = st.x_lo;
  const double x_hi = st.x_hi;

  // Bound on the grid steps a quiescent run may skip: a hair above dt, so
  // the few-ulp spread of t_begin + k * dt stays under it, yet tight enough
  // that a stage stalled one ulp from its input under alpha(dt) still
  // passes at_rest (under a 2 * dt bound almost none does).
  const double dt_max = dt * (1.0 + 0x1p-20);

  std::array<double, N> s{};  // stage states, mV
  std::copy_n(chain.state_.begin(), N, s.begin());
  double pass = chain.passthrough_;
  // Alpha rows of dt_max (for at_rest) and of the last step's dt.
  std::array<double, N> a_max{};
  std::array<double, N> a_step{};
  double dt_step = dt;
  if constexpr (N > 0) {
    std::copy_n(chain.alpha_row(Picoseconds{dt_max}), N, a_max.begin());
    std::copy_n(chain.alpha_row(Picoseconds{dt}), N, a_step.begin());
  }

  auto step = [&](double x, double h) {
    pass = x;
    if constexpr (N > 0) {
      if (h != dt_step) {
        dt_step = h;
        std::copy_n(chain.alpha_row(Picoseconds{h}), N, a_step.begin());
      }
      for (std::size_t i = 0; i < N; ++i) {
        s[i] += (x - s[i]) * a_step[i];
        x = s[i];
      }
    }
  };
  auto output = [&] {
    if constexpr (N == 0) {
      return pass;
    } else {
      return s[N - 1];
    }
  };
  auto at_rest = [&](double x) {
    if constexpr (N == 0) {
      return pass == x;
    } else {
      for (std::size_t i = 0; i < N; ++i) {
        if (s[i] + (x - s[i]) * a_max[i] != s[i]) {
          return false;
        }
        x = s[i];
      }
      return true;
    }
  };

  // Emitted samples accumulate into a SoA block and go out whole; the
  // sample values (and the block-partitioned delivery, for sinks honoring
  // the on_block contract) are byte-identical to the per-sample engine.
  SampleBlock block;
  auto flush = [&] {
    if (block.size == 0) {
      return;
    }
    for (WaveformSink* sink : sinks) {
      sink->on_block(block);
    }
    block.clear();
  };

  auto emit = [&](std::size_t k, double t_sample, double v) {
    if (k >= k_emit) {
      block.push(t_sample, v);
      if (block.full()) {
        flush();
      }
    } else if (k + 1 == k_emit) {
      for (WaveformSink* sink : sinks) {
        sink->on_context(Picoseconds{t_sample}, Millivolts{v});
      }
    }
  };

  double now = t_start;
  double v_prev = output();
  for (std::size_t k = k_start; k < k_end; ++k) {
    const double t_sample = t_begin.ps() + static_cast<double>(k) * dt;
    // Advance exactly through any transitions before this sample.
    while (next_tr < trs.size() && trs[next_tr].time.ps() <= t_sample) {
      const double t_tr = trs[next_tr].time.ps();
      if (t_tr > now) {
        step(level ? x_hi : x_lo, t_tr - now);
        now = t_tr;
      }
      level = trs[next_tr].level;
      ++next_tr;
    }
    if (t_sample > now) {
      step(level ? x_hi : x_lo, t_sample - now);
      now = t_sample;
    }
    const double v = output();
    emit(k, t_sample, v);
    // Quiescent run: if no stage can move under any step up to dt_max, every
    // step until the next transition returns v unchanged, so the samples
    // before it go out without stepping the chain.
    if (v == v_prev && at_rest(level ? x_hi : x_lo)) {
      const double t_next = next_tr < trs.size()
                                ? trs[next_tr].time.ps()
                                : std::numeric_limits<double>::infinity();
      while (k + 1 < k_end) {
        const double t_j = t_begin.ps() + static_cast<double>(k + 1) * dt;
        if (t_j >= t_next || t_j - now > dt_max) {
          break;
        }
        ++k;
        emit(k, t_j, v);
        now = t_j;
      }
    }
    v_prev = v;
  }
  flush();

  std::copy_n(s.begin(), N, chain.state_.begin());
  chain.passthrough_ = pass;
}

template <std::size_t N>
void WindowKernel::run_sparse(const EdgeStream& stream, FilterChain& chain,
                              const RenderConfig& config, Picoseconds t_begin,
                              std::size_t k_start, std::size_t k_emit,
                              std::size_t k_end,
                              const std::vector<WaveformSink*>& sinks) {
  const double dt = config.sample_step.ps();
  auto grid = [&](std::size_t k) {
    return t_begin.ps() + static_cast<double>(k) * dt;
  };
  // First grid index in [lo, k_end) at or after t, else k_end. Grid times
  // are monotone in the index, so the estimate only needs nudging.
  auto first_at_or_after = [&](double t, std::size_t lo) {
    const double est = std::ceil((t - t_begin.ps()) / dt);
    std::size_t k = k_end;
    if (est <= static_cast<double>(lo)) {
      k = lo;
    } else if (est < static_cast<double>(k_end)) {
      k = static_cast<std::size_t>(est);
    }
    while (k > lo && grid(k - 1) >= t) {
      --k;
    }
    while (k < k_end && grid(k) < t) {
      ++k;
    }
    return k;
  };

  std::vector<std::size_t> reads;
  for (const WaveformSink* sink : sinks) {
    for (const Picoseconds strobe : *sink->strobe_times()) {
      const std::size_t k = first_at_or_after(strobe.ps(), k_emit + 1);
      if (k < k_end) {
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

  const double t_start = grid(k_start);
  const auto& trs = stream.transitions();
  const Start st = start(stream, chain, config, t_start);
  std::size_t next_tr = st.next_tr;
  bool level = st.level;
  std::array<double, N> s{};  // stage states, mV
  std::copy_n(chain.state_.begin(), N, s.begin());
  double pass = chain.passthrough_;

  // run<N>'s step, with the same operations and alpha source.
  auto step = [&](double x, double h) {
    pass = x;
    if constexpr (N > 0) {
      const double* alpha = chain.alpha_row(Picoseconds{h});
      for (std::size_t i = 0; i < N; ++i) {
        s[i] += (x - s[i]) * alpha[i];
        x = s[i];
      }
    }
  };

  // In deviation form d = s - x one step of dt at constant input x is
  // d_i' = (1 - a_i) d_i + a_i d_{i-1}' (d_{-1}' = 0): a lower-triangular
  // map M of the alphas alone, the same at both levels. powers[j] holds
  // M^(2^j), squared up on first need.
  using Matrix = std::array<std::array<double, N>, N>;
  std::vector<Matrix> powers;
  if constexpr (N > 0) {
    const double* alpha = chain.alpha_row(Picoseconds{dt});
    Matrix m{};
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        m[i][j] = alpha[i] * m[i - 1][j];
      }
      m[i][i] = 1.0 - alpha[i];
    }
    powers.push_back(m);
  }
  // n steps of dt at constant input x.
  auto jump = [&](std::size_t n, double x) {
    pass = x;
    if constexpr (N > 0) {
      std::array<double, N> d{};
      for (std::size_t i = 0; i < N; ++i) {
        d[i] = s[i] - x;
      }
      for (std::size_t p = 0; n != 0; ++p, n >>= 1) {
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
        s[i] = x + d[i];
      }
    }
  };
  auto output = [&] {
    if constexpr (N == 0) {
      return pass;
    } else {
      return s[N - 1];
    }
  };

  // Grid sample k_start: transitions exactly at t_start switch the level
  // without a step, as in run<N>.
  std::size_t k = k_start;
  double now = t_start;
  while (next_tr < trs.size() && trs[next_tr].time.ps() <= t_start) {
    level = trs[next_tr].level;
    ++next_tr;
  }
  auto advance_to = [&](std::size_t target) {
    while (k < target) {
      // The grid sample that absorbs the next transition.
      const std::size_t k_tr =
          next_tr < trs.size()
              ? first_at_or_after(trs[next_tr].time.ps(), k + 1)
              : k_end;
      const std::size_t free_to = std::min(k_tr - 1, target);
      if (free_to > k) {
        jump(free_to - k, level ? st.x_hi : st.x_lo);
        k = free_to;
        now = grid(k);
      }
      if (k == target) {
        break;
      }
      // run<N>'s loop body at sample k_tr.
      k = k_tr;
      const double t_sample = grid(k);
      while (next_tr < trs.size() && trs[next_tr].time.ps() <= t_sample) {
        const double t_tr = trs[next_tr].time.ps();
        if (t_tr > now) {
          step(level ? st.x_hi : st.x_lo, t_tr - now);
          now = t_tr;
        }
        level = trs[next_tr].level;
        ++next_tr;
      }
      if (t_sample > now) {
        step(level ? st.x_hi : st.x_lo, t_sample - now);
        now = t_sample;
      }
    }
  };

  SampleBlock block;
  auto flush = [&] {
    for (WaveformSink* sink : sinks) {
      sink->on_block(block);
    }
    block.clear();
  };
  for (const std::size_t r : reads) {
    advance_to(r);
    block.push(grid(r), output());
    if (block.full()) {
      flush();
    }
  }
  if (block.size != 0) {
    flush();
  }
}

namespace {

using WindowFn = void (*)(const EdgeStream&, FilterChain&, const RenderConfig&,
                          Picoseconds, std::size_t, std::size_t, std::size_t,
                          const std::vector<WaveformSink*>&);

template <bool Sparse, std::size_t... N>
constexpr std::array<WindowFn, sizeof...(N)> window_kernels(
    std::index_sequence<N...>) {
  return {(Sparse ? &WindowKernel::run_sparse<N> : &WindowKernel::run<N>)...};
}

// One kernel of each kind per pole count 0..kMaxPoles; add_pole enforces
// the cap.
constexpr auto kDenseKernels = window_kernels<false>(
    std::make_index_sequence<FilterChain::kMaxPoles + 1>{});
constexpr auto kSparseKernels = window_kernels<true>(
    std::make_index_sequence<FilterChain::kMaxPoles + 1>{});

void run_window(const EdgeStream& stream, FilterChain& chain,
                const RenderConfig& config, Picoseconds t_begin,
                std::size_t k_start, std::size_t k_emit, std::size_t k_end,
                const std::vector<WaveformSink*>& sinks) {
  const bool strobes_only =
      std::all_of(sinks.begin(), sinks.end(), [](const WaveformSink* sink) {
        return sink->strobe_times() != nullptr;
      });
  const auto& kernels = strobes_only ? kSparseKernels : kDenseKernels;
  kernels[chain.pole_count()](stream, chain, config, t_begin, k_start, k_emit,
                              k_end, sinks);
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
