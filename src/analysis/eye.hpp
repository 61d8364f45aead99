// Eye-diagram construction and crossover jitter measurement.
//
// These functions implement the measurements the paper reports from its
// sampling oscilloscope: peak-to-peak and rms jitter of the threshold
// crossings at the eye crossover point, and the usable eye opening in unit
// intervals (UI), defined as 1 - TJpp/UI exactly as in Figs 7, 8, 16, 17
// and 19.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace mgt::ana {

/// Crossover jitter statistics extracted from threshold crossings.
struct CrossoverJitter {
  std::size_t count = 0;
  Picoseconds peak_to_peak{0.0};
  Picoseconds rms{0.0};
  /// Mean crossing phase within the UI, relative to the UI grid origin.
  Picoseconds mean_phase{0.0};
};

/// Folds crossing times onto a single unit interval and measures their
/// spread. `t_ref` is any time on the ideal bit-boundary grid.
CrossoverJitter measure_crossover_jitter(
    const std::vector<sig::Crossing>& crossings, Picoseconds ui,
    Picoseconds t_ref = Picoseconds{0});

/// Restriction of the same measurement to rising or falling edges only
/// (Fig 9 measures a single falling edge's jitter).
CrossoverJitter measure_edge_jitter(const std::vector<sig::Crossing>& crossings,
                                    Picoseconds ui, bool rising,
                                    Picoseconds t_ref = Picoseconds{0});

/// Summary eye metrics in the units the paper uses.
struct EyeMetrics {
  CrossoverJitter jitter;
  UnitIntervals eye_opening{0.0};  // 1 - TJpp/UI
  Picoseconds eye_width{0.0};    // UI - TJpp
  Millivolts eye_height{0.0};    // vertical opening at eye center
  Millivolts level_high{0.0};    // settled logic-high voltage
  Millivolts level_low{0.0};     // settled logic-low voltage
};

/// 2D-folded eye diagram: time (phase within 2 UI) x voltage histogram,
/// plus the vertical-opening bookkeeping needed for EyeMetrics.
class EyeDiagram final : public sig::WaveformSink {
public:
  struct Config {
    Picoseconds ui{400.0};
    Picoseconds t_ref{0.0};        // a bit-boundary time
    Millivolts v_lo{1500.0};
    Millivolts v_hi{2500.0};
    Millivolts threshold{2000.0};  // decision threshold / crossover level
    std::size_t time_bins = 128;   // across 2 UI
    std::size_t volt_bins = 64;
  };

  /// Half-width of the "eye center" phase window used for the vertical
  /// opening, as a fraction of UI. Narrow enough that band-limited edge
  /// tails at high rates stay outside it.
  static constexpr double kCenterWindow = 0.1;

  /// Throws unless ui, t_ref, v_lo, v_hi and threshold are finite, ui > 0
  /// with a finite 2-UI span, v_hi > v_lo with a finite range and both bin
  /// counts are non-zero.
  explicit EyeDiagram(Config config);

  void on_sample(Picoseconds t, Millivolts v) override;
  void on_block(const sig::SampleBlock& block) override;
  void on_context(Picoseconds t, Millivolts v) override;

  /// One grid sample into the crossing record, the sample count, the
  /// density grid and the center-window trackers: the inline, non-virtual
  /// body of every delivery. on_sample and on_block call it, and the fused
  /// render (sig::accumulate_chunked) calls it directly per sample.
  [[gnu::always_inline]] inline void fold_sample(Picoseconds t, Millivolts v);

  /// Folds another eye accumulated over a later, disjoint part of the same
  /// acquisition into this one (histograms add, crossings append). Both
  /// must share one configuration, or the call throws. Merges must run in
  /// chunk order so the crossing record stays time-ordered — the
  /// fixed-order-reduction rule of the parallel layer.
  void merge(const EyeDiagram& later);

  /// Density count at (time_bin, volt_bin).
  [[nodiscard]] std::size_t count_at(std::size_t time_bin,
                                     std::size_t volt_bin) const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t total_samples() const { return total_; }

  /// Vertical eye opening measured in the center window: the gap between
  /// the lowest sample of the high rail and the highest sample of the low
  /// rail. Zero or negative means a closed eye.
  [[nodiscard]] Millivolts eye_height() const;

  /// Mean settled rail voltages within the center window.
  [[nodiscard]] Millivolts level_high() const;
  [[nodiscard]] Millivolts level_low() const;

  /// Crossings of the decision threshold observed while accumulating.
  [[nodiscard]] const std::vector<sig::Crossing>& crossings() const {
    return crossings_.crossings();
  }

  /// Full metric set.
  [[nodiscard]] EyeMetrics metrics() const;

  /// ASCII-art rendering (rows = voltage top-down, cols = phase across 2 UI)
  /// using density shading, for examples and debug output.
  [[nodiscard]] std::string ascii_art(std::size_t cols = 64,
                                      std::size_t rows = 20) const;

private:
  /// The 2-UI phase of x = t - t_ref for a sample outside the current
  /// period (or before t_ref): positive_mod(x, 2 UI), the sample's period
  /// then becoming the current one. Out of line, as it runs once per
  /// period.
  [[gnu::cold, gnu::noinline]] Picoseconds rebase(Picoseconds x);
  /// positive_mod(x, UI), out of line: the 1-UI phase of a sample before
  /// t_ref.
  [[gnu::cold, gnu::noinline]] [[nodiscard]] Picoseconds phase_before_ref(
      Picoseconds x) const;
  /// The volt bin of a v that passes the grid gate, vb_edges_[0] <= v <
  /// vb_edges_[volt_bins]: a multiply-and-truncate candidate corrected
  /// against the boundaries.
  [[nodiscard]] std::size_t volt_bin(Millivolts v) const;

  Config config_;
  std::vector<std::size_t> grid_;  // time_bins x volt_bins
  std::size_t total_ = 0;
  sig::CrossingRecorder crossings_;
  // The fold's constants and boundary tables (see the constructor).
  double span_;       // 2 UI, ps
  double half_ui_;    // UI / 2, ps
  double center_ps_;  // kCenterWindow * UI, ps
  double v_scale_;    // volt_bins / (v_hi - v_lo), bins per mV
  std::vector<double> tb_edges_;  // time_bins + 1 phase boundaries, ps
  std::vector<double> vb_edges_;  // volt_bins + 1 voltage boundaries, mV
  // The current period's base n * 2 UI, exact, or NaN; the time bin of
  // the last sample.
  double base_;
  std::size_t tb_ = 0;
  // Vertical-opening trackers within the center window.
  double center_min_high_ = 1e300;
  double center_max_low_ = -1e300;
  RunningStats center_high_;
  RunningStats center_low_;
};

inline void EyeDiagram::fold_sample(Picoseconds t, Millivolts v) {
  crossings_.fold(t, v);
  ++total_;

  // The 2-UI phase: x - base exactly when it lies in [0, 2 UI) (see
  // rebase()), which is positive_mod(x, 2 UI) bit for bit.
  const double x = t.ps() - config_.t_ref.ps();
  double phase2 = x - base_;
  if (!(phase2 >= 0.0 && phase2 < span_)) [[unlikely]] {
    phase2 = rebase(Picoseconds{x}).ps();
  }
  // The time bin, tracked against the phase boundaries: reset on a wrap
  // (or a sample out of time order), stepped by at most one bin a sample
  // at the usual grid steps.
  if (phase2 < tb_edges_[tb_]) [[unlikely]] {
    tb_ = 0;
  }
  while (phase2 >= tb_edges_[tb_ + 1]) [[unlikely]] {
    ++tb_;
  }
  if (v.mv() >= vb_edges_.front() && v.mv() < vb_edges_.back()) {
    ++grid_[tb_ * config_.volt_bins + volt_bin(v)];
  }

  // Eye-center vertical opening: samples within +-kCenterWindow*UI of the
  // middle of the bit cell. For x >= 0, fmod(x, 2ui) - ui == fmod(x, ui)
  // exactly when the former is >= ui, and the subtraction is exact
  // (Sterbenz), so the 2-UI phase yields the 1-UI phase with no second mod.
  const double ui = config_.ui.ps();
  const double phase1 = x >= 0.0 ? (phase2 >= ui ? phase2 - ui : phase2)
                                 : phase_before_ref(Picoseconds{x}).ps();
  if (std::abs(phase1 - half_ui_) <= center_ps_) {
    if (v.mv() >= config_.threshold.mv()) {
      center_min_high_ = std::min(center_min_high_, v.mv());
      center_high_.add(v.mv());
    } else {
      center_max_low_ = std::max(center_max_low_, v.mv());
      center_low_.add(v.mv());
    }
  }
}

inline std::size_t EyeDiagram::volt_bin(Millivolts v) const {
  const double c = (v.mv() - config_.v_lo.mv()) * v_scale_;
  const std::size_t last = config_.volt_bins - 1;
  std::size_t vb = 0;
  if (c >= 1.0) {
    vb = c < static_cast<double>(last) ? static_cast<std::size_t>(c) : last;
  }
  while (v.mv() < vb_edges_[vb]) {
    --vb;
  }
  while (v.mv() >= vb_edges_[vb + 1]) {
    ++vb;
  }
  return vb;
}

/// Accumulates an eye over [t_begin, t_end) of the rendered stream using
/// the fixed chunk decomposition of sig::render_chunk, with the chunks
/// executed by util::parallel_for and merged in chunk order. Byte-identical
/// results at every thread count (including the MGT_THREADS=0 serial
/// fallback) by construction; single-chunk windows are additionally
/// byte-identical to a plain sig::render pass.
EyeDiagram accumulate_eye(const sig::EdgeStream& stream,
                          const sig::FilterChain& chain,
                          const sig::RenderConfig& render_config,
                          Picoseconds t_begin, Picoseconds t_end,
                          const EyeDiagram::Config& eye_config,
                          const sig::RenderChunking& chunking = {});

}  // namespace mgt::ana
