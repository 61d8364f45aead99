#include "analysis/eye.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "obs/obs.hpp"
#include "signal/walk.hpp"
#include "util/error.hpp"

namespace mgt::ana {

namespace {

CrossoverJitter jitter_from_phases(const std::vector<double>& phases,
                                   double ui) {
  CrossoverJitter out;
  if (phases.empty()) {
    return out;
  }
  // Recenter all phases to within +-UI/2 of the first one, then of the
  // mean, to avoid wrap-around splitting the crossover cluster. Valid while
  // TJ << UI, which holds for every eye the paper shows.
  auto recenter = [&](double center) {
    RunningStats stats;
    for (double p : phases) {
      double d = positive_mod(p - center + ui / 2.0, ui) - ui / 2.0;
      stats.add(center + d);
    }
    return stats;
  };
  RunningStats pass1 = recenter(phases.front());
  RunningStats pass2 = recenter(pass1.mean());
  out.count = pass2.count();
  out.peak_to_peak = Picoseconds{pass2.peak_to_peak()};
  out.rms = Picoseconds{pass2.stddev()};
  out.mean_phase = Picoseconds{positive_mod(pass2.mean(), ui)};
  return out;
}

}  // namespace

CrossoverJitter measure_crossover_jitter(
    const std::vector<sig::Crossing>& crossings, Picoseconds ui,
    Picoseconds t_ref) {
  MGT_CHECK(ui.ps() > 0.0);
  std::vector<double> phases;
  phases.reserve(crossings.size());
  for (const auto& c : crossings) {
    phases.push_back(positive_mod(c.time.ps() - t_ref.ps(), ui.ps()));
  }
  return jitter_from_phases(phases, ui.ps());
}

CrossoverJitter measure_edge_jitter(const std::vector<sig::Crossing>& crossings,
                                    Picoseconds ui, bool rising,
                                    Picoseconds t_ref) {
  std::vector<sig::Crossing> filtered;
  filtered.reserve(crossings.size());
  for (const auto& c : crossings) {
    if (c.rising == rising) {
      filtered.push_back(c);
    }
  }
  return measure_crossover_jitter(filtered, ui, t_ref);
}

namespace {

// Doubles in value order as unsigned keys: -inf < ... < -0 < +0 < ... < +inf,
// with the NaNs outside [key(-inf), key(+inf)].
std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

double from_order_key(std::uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0 ? key & ~(std::uint64_t{1} << 63)
                                                : ~key);
}

/// The least double x in (lo, hi] with `at_least(x)`, for a predicate that
/// is monotone in x, false at lo and true at hi: bisection over the keys.
/// The bracket first narrows to 2^16 keys around `guess` when the predicate
/// confirms it, which leaves the answer unchanged.
template <typename Pred>
double least_where(double lo, double hi, double guess, const Pred& at_least) {
  std::uint64_t k_lo = order_key(lo);
  std::uint64_t k_hi = order_key(hi);
  const std::uint64_t k_guess = std::clamp(order_key(guess), k_lo, k_hi);
  const std::uint64_t near = std::uint64_t{1} << 16;
  if (k_guess - k_lo > near && !at_least(from_order_key(k_guess - near))) {
    k_lo = k_guess - near;
  }
  if (k_hi - k_guess > near && at_least(from_order_key(k_guess + near))) {
    k_hi = k_guess + near;
  }
  while (k_hi - k_lo > 1) {
    const std::uint64_t mid = k_lo + (k_hi - k_lo) / 2;
    if (at_least(from_order_key(mid))) {
      k_hi = mid;
    } else {
      k_lo = mid;
    }
  }
  return from_order_key(k_hi);
}

}  // namespace

// The grid bins are monotone maps, tracked against boundary tables instead
// of computed per sample. The time bin of a 2-UI phase p in [0, 2 UI] is
// min(trunc(p / span * time_bins), time_bins - 1), and the volt bin of a v
// is min(trunc(vfrac * volt_bins), volt_bins - 1) with vfrac = (v - v_lo)
// / (v_hi - v_lo), binned only when vfrac lies in [0, 1). Division,
// multiplication and subtraction round monotonically and truncation is
// monotone, so both bins are non-decreasing in their argument: with
// tb_edges_[j] the least phase of bin j or higher and vb_edges_[j] the
// least v of bin j or higher (vb_edges_[volt_bins] the least v with vfrac
// >= 1), a sample's bin is the last boundary at or below it, and the gate
// vfrac in [0, 1) is vb_edges_[0] <= v < vb_edges_[volt_bins]. A NaN v
// fails the gate, as its NaN vfrac does. The formulas below are the fold's
// former per-sample ones, kept here only to find the boundaries.
EyeDiagram::EyeDiagram(Config config)
    : config_(config),
      grid_(config.time_bins * config.volt_bins, 0),
      crossings_(config.threshold),
      span_(2.0 * config.ui.ps()),
      half_ui_(config.ui.ps() / 2.0),
      center_ps_(kCenterWindow * config.ui.ps()),
      v_scale_(static_cast<double>(config.volt_bins) /
               (config.v_hi.mv() - config.v_lo.mv())),
      base_(std::numeric_limits<double>::quiet_NaN()) {
  const double ui = config_.ui.ps();
  const double v_lo = config_.v_lo.mv();
  const double v_hi = config_.v_hi.mv();
  MGT_CHECK(std::isfinite(ui) && std::isfinite(config_.t_ref.ps()) &&
                std::isfinite(v_lo) && std::isfinite(v_hi) &&
                std::isfinite(config_.threshold.mv()),
            "eye configuration values must be finite");
  MGT_CHECK(ui > 0.0 && std::isfinite(span_));
  MGT_CHECK(config_.time_bins > 0 && config_.volt_bins > 0);
  MGT_CHECK(v_hi > v_lo && std::isfinite(v_hi - v_lo));

  const double span = span_;
  const std::size_t n_tb = config_.time_bins;
  const auto time_bin_of = [&](double phase2) {
    const auto tb = static_cast<std::size_t>(
        phase2 / span * static_cast<double>(n_tb));
    return std::min(tb, n_tb - 1);
  };
  const double inf = std::numeric_limits<double>::infinity();
  tb_edges_.assign(n_tb + 1, inf);
  tb_edges_[0] = 0.0;
  for (std::size_t j = 1; j < n_tb; ++j) {
    tb_edges_[j] = least_where(
        0.0, span, span * static_cast<double>(j) / static_cast<double>(n_tb),
        [&](double p) { return time_bin_of(p) >= j; });
  }

  const std::size_t n_vb = config_.volt_bins;
  // The volt bin, with -1 below the gate and n_vb above it.
  const auto volt_bin_of = [&](double v) -> std::ptrdiff_t {
    const double vfrac = (v - v_lo) / (v_hi - v_lo);
    if (!(vfrac >= 0.0)) {
      return -1;
    }
    if (!(vfrac < 1.0)) {
      return static_cast<std::ptrdiff_t>(n_vb);
    }
    const auto vb =
        static_cast<std::size_t>(vfrac * static_cast<double>(n_vb));
    return static_cast<std::ptrdiff_t>(std::min(vb, n_vb - 1));
  };
  vb_edges_.resize(n_vb + 1);
  for (std::size_t j = 0; j <= n_vb; ++j) {
    vb_edges_[j] = least_where(
        -inf, inf,
        v_lo + (v_hi - v_lo) * static_cast<double>(j) /
                   static_cast<double>(n_vb),
        [&](double v) {
          return volt_bin_of(v) >= static_cast<std::ptrdiff_t>(j);
        });
  }
}

// The fast phase: with base = n * span exact for an integer n >= 0, a
// computed r = x - base in [0, span) is exact, so r = x - n * span as real
// numbers and positive_mod(x, span) = r bit for bit. Computed subtraction
// rounds monotonically and span is a double, so a computed r in [0, span)
// means the exact difference lies in [0, span) too; it is then exact for
// n = 0 (base = 0) and by Sterbenz's lemma for n >= 1, where base <= x <
// base + span <= 2 * base. trunc(x / span) is then n, and fmod's x - n *
// span is r. A zero r is +0, as fmod's is for x >= 0 (x = -0 gives -0 in
// both). Every other sample, including every x < 0 (where positive_mod's
// + span rounds, and can return span itself), takes positive_mod here. A
// base is kept only for x >= 0, so n >= 0 (the case the argument covers),
// and only when fma(n, span, -base) is zero, so n * span is exact;
// otherwise it is NaN and the next sample comes here too.
Picoseconds EyeDiagram::rebase(Picoseconds x) {
  const double phase2 = positive_mod(x.ps(), span_);
  base_ = std::numeric_limits<double>::quiet_NaN();
  if (x.ps() >= 0.0) {
    const double n = std::trunc(x.ps() / span_);
    const double base = n * span_;
    if (std::fma(n, span_, -base) == 0.0) {
      base_ = base;
    }
  }
  return Picoseconds{phase2};
}

Picoseconds EyeDiagram::phase_before_ref(Picoseconds x) const {
  return Picoseconds{positive_mod(x.ps(), config_.ui.ps())};
}

void EyeDiagram::on_sample(Picoseconds t, Millivolts v) { fold_sample(t, v); }

void EyeDiagram::on_block(const sig::SampleBlock& block) {
  for (std::size_t i = 0; i < block.size; ++i) {
    fold_sample(Picoseconds{block.t[i]}, Millivolts{block.v[i]});
  }
}

void EyeDiagram::on_context(Picoseconds t, Millivolts v) {
  crossings_.on_context(t, v);
}

void EyeDiagram::merge(const EyeDiagram& later) {
  const Config& a = config_;
  const Config& b = later.config_;
  MGT_CHECK(a.ui == b.ui && a.t_ref == b.t_ref && a.v_lo == b.v_lo &&
                a.v_hi == b.v_hi && a.threshold == b.threshold &&
                a.time_bins == b.time_bins && a.volt_bins == b.volt_bins,
            "cannot merge eyes with different configurations");
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    grid_[i] += later.grid_[i];
  }
  total_ += later.total_;
  crossings_.merge(later.crossings_);
  center_min_high_ = std::min(center_min_high_, later.center_min_high_);
  center_max_low_ = std::max(center_max_low_, later.center_max_low_);
  center_high_.merge(later.center_high_);
  center_low_.merge(later.center_low_);
}

std::size_t EyeDiagram::count_at(std::size_t time_bin,
                                 std::size_t volt_bin) const {
  MGT_CHECK(time_bin < config_.time_bins && volt_bin < config_.volt_bins);
  return grid_[time_bin * config_.volt_bins + volt_bin];
}

Millivolts EyeDiagram::eye_height() const {
  if (center_high_.count() == 0 || center_low_.count() == 0) {
    return Millivolts{0.0};
  }
  return Millivolts{center_min_high_ - center_max_low_};
}

Millivolts EyeDiagram::level_high() const {
  return Millivolts{center_high_.mean()};
}

Millivolts EyeDiagram::level_low() const {
  return Millivolts{center_low_.mean()};
}

EyeMetrics EyeDiagram::metrics() const {
  EyeMetrics m;
  m.jitter = measure_crossover_jitter(crossings(), config_.ui, config_.t_ref);
  m.eye_width = config_.ui - m.jitter.peak_to_peak;
  m.eye_opening = UnitIntervals{m.eye_width.ps() / config_.ui.ps()};
  m.eye_height = eye_height();
  m.level_high = level_high();
  m.level_low = level_low();
  return m;
}

std::string EyeDiagram::ascii_art(std::size_t cols, std::size_t rows) const {
  static const char kShades[] = " .:-=+*#%@";
  std::string art;
  art.reserve((cols + 1) * rows);
  std::size_t peak = 1;
  for (std::size_t c : grid_) {
    peak = std::max(peak, c);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    // Row 0 is the top (highest voltage).
    const std::size_t vb_hi =
        config_.volt_bins - r * config_.volt_bins / rows - 1;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t tb = c * config_.time_bins / cols;
      // Aggregate the grid cells mapping to this character cell.
      std::size_t sum = 0;
      const std::size_t vb_lo =
          config_.volt_bins - (r + 1) * config_.volt_bins / rows;
      for (std::size_t vb = vb_lo; vb <= vb_hi; ++vb) {
        sum += grid_[tb * config_.volt_bins + vb];
      }
      const double norm =
          std::log1p(static_cast<double>(sum)) / std::log1p(static_cast<double>(peak));
      const auto shade = static_cast<std::size_t>(
          norm * (sizeof(kShades) - 2));
      art.push_back(kShades[std::min<std::size_t>(shade, sizeof(kShades) - 2)]);
    }
    art.push_back('\n');
  }
  return art;
}

EyeDiagram accumulate_eye(const sig::EdgeStream& stream,
                          const sig::FilterChain& chain,
                          const sig::RenderConfig& render_config,
                          Picoseconds t_begin, Picoseconds t_end,
                          const EyeDiagram::Config& eye_config,
                          const sig::RenderChunking& chunking) {
  EyeDiagram out = sig::accumulate_chunked<EyeDiagram>(
      stream, chain, render_config, t_begin, t_end, chunking,
      [&] { return EyeDiagram(eye_config); });
  const std::size_t n_chunks =
      sig::render_chunk_count(render_config, t_begin, t_end, chunking);
  // Recorded after the ordered merge, on the caller: totals are properties
  // of the merged eye, so they are identical at every worker count.
  obs::add_counter("eye.accumulations");
  obs::add_counter("eye.chunks", n_chunks);
  obs::add_counter("eye.samples", out.total_samples());
  obs::add_counter("eye.crossings", out.crossings().size());
  obs::observe("eye.chunk_crossings", 0.0, 4096.0, 64,
               static_cast<double>(out.crossings().size()) /
                   static_cast<double>(n_chunks));
  return out;
}

}  // namespace mgt::ana
