#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mgt {

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::stddev() const {
  if (n_ == 0) {
    return 0.0;
  }
  return std::sqrt(m2_ / static_cast<double>(n_));
}

double RunningStats::rms() const {
  if (n_ == 0) {
    return 0.0;
  }
  return std::sqrt(sum_sq_ / static_cast<double>(n_));
}

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }
double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

double RunningStats::peak_to_peak() const {
  return n_ == 0 ? 0.0 : max_ - min_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  sum_sq_ += other.sum_sq_;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  MGT_CHECK(hi > lo, "histogram range must be non-empty");
  MGT_CHECK(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  idx = std::min(idx, counts_.size() - 1);  // guard float edge at hi_
  ++counts_[idx];
}

double Histogram::bin_center(std::size_t i) const {
  MGT_CHECK(i < counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::quantile(double q) const {
  MGT_CHECK(q >= 0.0 && q <= 1.0);
  const std::size_t in_range = total_ - underflow_ - overflow_;
  MGT_CHECK(in_range > 0, "quantile of empty histogram");
  // The populated support: empty leading/trailing bins carry no sample
  // mass, so no quantile may ever land inside them.
  std::size_t first = 0;
  while (counts_[first] == 0) {
    ++first;
  }
  std::size_t last = counts_.size() - 1;
  while (counts_[last] == 0) {
    --last;
  }
  if (q == 0.0) {
    return lo_ + static_cast<double>(first) * width_;
  }
  if (q == 1.0) {
    return lo_ + static_cast<double>(last + 1) * width_;
  }
  const double target = q * static_cast<double>(in_range);
  double cum = 0.0;
  for (std::size_t i = first; i <= last; ++i) {
    // Skip bins with no mass: `cum + 0 >= target` can hold at a bin the
    // target sits exactly on top of, and interpolating into it would
    // report a value no recorded sample reaches.
    if (counts_[i] == 0) {
      continue;
    }
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return lo_ + (static_cast<double>(i) + frac) * width_;
    }
    cum = next;
  }
  return lo_ + static_cast<double>(last + 1) * width_;
}

std::size_t Histogram::mode_bin() const {
  MGT_CHECK(total_ - underflow_ - overflow_ > 0, "mode of empty histogram");
  return static_cast<std::size_t>(
      std::max_element(counts_.begin(), counts_.end()) - counts_.begin());
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), std::size_t{0});
  underflow_ = overflow_ = total_ = 0;
}

}  // namespace mgt
