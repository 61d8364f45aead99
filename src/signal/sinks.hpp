// Reusable waveform sinks: threshold-crossing recorder, strobe sampler,
// and amplitude tracker. The measurement library builds the
// paper's instruments (eye diagram, jitter, rise/fall) on top of these.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "signal/render.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// A threshold crossing with interpolated time.
struct Crossing {
  Picoseconds time;
  bool rising;
};

/// Records every crossing of a voltage threshold, with linear interpolation
/// between adjacent samples. A recorder rendered into again pairs the new
/// window's first sample with the last one it was handed. When the render
/// takes the side-change loop (crossing_threshold()), that is the last
/// sample delivered, not the window's last grid sample, so a crossing
/// across the two windows can differ or vanish. For results that do not
/// depend on the loop, render() into a recorder once, or render_chunk()
/// into one recorder per chunk and merge() them in order.
class CrossingRecorder final : public WaveformSink {
public:
  explicit CrossingRecorder(Millivolts threshold) : threshold_(threshold) {}

  void on_sample(Picoseconds t, Millivolts v) override;
  void on_block(const SampleBlock& block) override;
  void on_context(Picoseconds t, Millivolts v) override;
  /// A crossing is recorded only from a pair that straddles the threshold,
  /// so a render into recorders of one threshold delivers just those pairs.
  [[nodiscard]] std::optional<Millivolts> crossing_threshold() const override {
    return threshold_;
  }

  [[nodiscard]] const std::vector<Crossing>& crossings() const {
    return crossings_;
  }

  /// Appends `later`'s crossings (a chunk rendered after this one) so
  /// chunked acquisitions merge into one time-ordered record.
  void merge(const CrossingRecorder& later);

  /// One grid sample: records the crossing of the pair it closes, if any.
  /// The inline, non-virtual body of on_sample and on_block, also called
  /// per sample by sinks that embed a recorder (the eye).
  inline void fold(Picoseconds t, Millivolts v);

private:
  Millivolts threshold_;
  bool have_prev_ = false;
  double prev_t_ = 0.0;
  double prev_v_ = 0.0;
  std::vector<Crossing> crossings_;
};

inline void CrossingRecorder::fold(Picoseconds t, Millivolts v) {
  const double th = threshold_.mv();
  if (have_prev_) {
    const bool was_below = prev_v_ < th;
    const bool is_below = v.mv() < th;
    if (was_below != is_below && v.mv() != prev_v_) {
      const double frac = (th - prev_v_) / (v.mv() - prev_v_);
      const double tc = prev_t_ + frac * (t.ps() - prev_t_);
      crossings_.push_back({Picoseconds{tc}, was_below});
    }
  }
  prev_t_ = t.ps();
  prev_v_ = v.mv();
  have_prev_ = true;
}

/// Captures the analog value at each of a sorted list of strobe times
/// (linear interpolation), then slices to bits against a threshold. This is
/// the behavioral model of the mini-tester's PECL data-capture flip-flop:
/// an aperture RJ on the strobe and a +-aperture/2 uncertainty band around
/// the threshold (metastability) are applied.
class StrobeSampler final : public WaveformSink {
public:
  struct Config {
    Millivolts threshold{2000.0};
    /// RMS random jitter on the strobe position.
    Picoseconds strobe_rj_sigma{0.0};
    /// Total setup+hold aperture: if the waveform crosses the threshold
    /// within +-aperture/2 of the strobe, the captured bit is random.
    Picoseconds aperture{0.0};
  };

  /// `strobes` must be sorted ascending.
  StrobeSampler(std::vector<Picoseconds> strobes, Config config, Rng rng);

  void on_sample(Picoseconds t, Millivolts v) override;
  void finish() override;
  /// The jittered, sorted strobes: a render into samplers alone delivers
  /// only the grid pair around each strobe.
  [[nodiscard]] const std::vector<Picoseconds>* strobe_times() const override {
    return &strobes_;
  }

  /// Captured logic values, one per strobe (valid after finish()).
  [[nodiscard]] const BitVector& bits() const { return bits_; }
  /// Interpolated analog values at each strobe. A render into samplers
  /// alone takes the sparse walk, whose values match a dense render of the
  /// same window to rounding (under 1e-10 mV on the mini-tester's chain,
  /// 1e-8 mV is the tested bound); bits() can differ only where a value
  /// lies that close to the threshold.
  [[nodiscard]] const std::vector<Millivolts>& analog() const {
    return analog_;
  }
  /// Number of strobes that fell outside the rendered window (unfilled).
  [[nodiscard]] std::size_t missed() const { return missed_; }

private:
  void capture(Millivolts v, MvPerPs slope);

  std::vector<Picoseconds> strobes_;  // jittered, sorted
  Config config_;
  Rng rng_;
  std::size_t next_ = 0;
  bool have_prev_ = false;
  double prev_t_ = 0.0;
  double prev_v_ = 0.0;
  BitVector bits_;
  std::vector<Millivolts> analog_;
  std::size_t missed_ = 0;
};

/// Tracks the extreme voltages reached and the settled high/low levels.
/// "Settled" samples are those taken while the waveform slope is below a
/// threshold (flat tops/bottoms), which is how a scope's histogram measures
/// logic levels.
class AmplitudeTracker final : public WaveformSink {
public:
  /// `slope_limit` is the |dV/dt| below which a sample counts as settled.
  explicit AmplitudeTracker(Millivolts decision_threshold,
                            MvPerPs slope_limit = MvPerPs{0.5});

  void on_sample(Picoseconds t, Millivolts v) override;
  void on_block(const SampleBlock& block) override;
  void on_context(Picoseconds t, Millivolts v) override;

  /// Folds in another tracker over a disjoint window (chunked renders).
  void merge(const AmplitudeTracker& other);

  [[nodiscard]] Millivolts v_max() const { return Millivolts{max_}; }
  [[nodiscard]] Millivolts v_min() const { return Millivolts{min_}; }
  /// Mean of settled samples above / below the decision threshold.
  [[nodiscard]] Millivolts settled_high() const;
  [[nodiscard]] Millivolts settled_low() const;
  [[nodiscard]] Millivolts peak_to_peak() const {
    return Millivolts{max_ - min_};
  }

private:
  /// One grid sample into the extremes and the slope-gated statistics.
  /// The body both delivery paths share.
  inline void fold(Picoseconds t, Millivolts v);

  Millivolts threshold_;
  MvPerPs slope_limit_;
  bool have_prev_ = false;
  double prev_t_ = 0.0;
  double prev_v_ = 0.0;
  double max_ = -std::numeric_limits<double>::infinity();
  double min_ = std::numeric_limits<double>::infinity();
  RunningStats high_;
  RunningStats low_;
};

}  // namespace mgt::sig
