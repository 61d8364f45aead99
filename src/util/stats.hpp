// Streaming statistics accumulators used by the measurement library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mgt {

/// Bitwise equal to std::fmod(x, m), without glibc's per-call fmod loop.
/// fmod's result x - n*m (n = trunc(x/m)) is always representable, so one
/// fma with the true quotient n returns it exactly. Division rounds
/// monotonically and n is representable, so trunc(x/m) computed is n or n
/// one further from zero; the latter leaves a remainder of the sign
/// opposite to x's, and the quotient is corrected before the fma is redone
/// (adjusting the remainder by +-m instead could round). Quotients of 2^52
/// and beyond, non-finite operands and m <= 0 go to std::fmod (a
/// non-finite x or a zero or NaN m makes the quotient non-finite).
inline double exact_fmod(double x, double m) {
  const double qd = x / m;
  if (!(std::abs(qd) < 0x1p52) || !(m > 0.0 && m < HUGE_VAL)) {
    return std::fmod(x, m);
  }
  double q = static_cast<double>(static_cast<std::int64_t>(qd));
  double r = std::fma(-q, m, x);
  if (x >= 0.0 ? r < 0.0 : r > 0.0) {
    q -= std::copysign(1.0, q);
    r = std::fma(-q, m, x);
  }
  // A zero remainder carries the sign of x, as fmod's does.
  return r == 0.0 ? std::copysign(0.0, x) : r;
}

/// `x` modulo `m`, folded to be non-negative: the phase of a time on a
/// grid of period `m`. The eye fold calls it once per 2-UI period, and per
/// sample only before its t_ref.
inline double positive_mod(double x, double m) {
  double r = exact_fmod(x, m);
  if (r < 0.0) {
    r += m;
  }
  return r;
}

/// Single-pass accumulator for count / mean / rms / stddev / min / max /
/// peak-to-peak. Uses Welford's algorithm for numerical stability.
class RunningStats {
public:
  /// Inline: the eye fold adds its center-window samples from inside the
  /// render loop, where a call would spill the loop's registers.
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    sum_sq_ += x * x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Population standard deviation (what a scope's "rms jitter" reports
  /// after mean removal).
  [[nodiscard]] double stddev() const;
  /// Root mean square of the raw samples (no mean removal).
  [[nodiscard]] double rms() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// max - min; 0 when empty.
  [[nodiscard]] double peak_to_peak() const;

  void merge(const RunningStats& other);
  void reset();

private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;        // sum of squared deviations from mean
  double sum_sq_ = 0.0;    // raw sum of squares, for rms()
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bin histogram over [lo, hi). Out-of-range samples are counted in
/// saturating under/overflow bins so nothing is silently dropped.
class Histogram {
public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t bin(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bin_center(std::size_t i) const;
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t total() const { return total_; }

  /// Value below which `q` (0..1) of the in-range samples fall, by linear
  /// interpolation within the containing bin. Empty bins are skipped until
  /// sample mass is actually crossed; q=0 and q=1 return the lower edge of
  /// the first and the upper edge of the last populated bin, so the result
  /// always lies within the recorded support. Requires in-range samples.
  [[nodiscard]] double quantile(double q) const;

  /// Index of the fullest bin. Requires in-range samples (an empty
  /// histogram has no mode to report).
  [[nodiscard]] std::size_t mode_bin() const;

  void reset();

private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace mgt
