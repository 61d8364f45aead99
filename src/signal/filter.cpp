#include "signal/filter.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mgt::sig {

namespace {
const double kLn4 = std::log(4.0);
}

FilterChain& FilterChain::add_pole(Picoseconds tau) {
  MGT_CHECK(tau.ps() > 0.0, "pole time constant must be positive");
  MGT_CHECK(taus_.size() < kMaxPoles, "filter chain is full (kMaxPoles)");
  taus_.push_back(tau.ps());
  state_.push_back(0.0);
  return *this;
}

FilterChain& FilterChain::add_pole_rise_2080(Picoseconds rise) {
  return add_pole(tau_for_rise_2080(rise));
}

FilterChain& FilterChain::set_gain(double gain, Millivolts midpoint) {
  MGT_CHECK(gain > 0.0);
  gain_ = gain;
  midpoint_mv_ = midpoint.mv();
  return *this;
}

Picoseconds FilterChain::rise_2080_estimate() const {
  double sum_sq = 0.0;
  for (double tau : taus_) {
    const double r = tau * kLn4;
    sum_sq += r * r;
  }
  return Picoseconds{std::sqrt(sum_sq)};
}

Picoseconds FilterChain::group_delay() const {
  double sum = 0.0;
  for (double tau : taus_) {
    sum += tau;
  }
  return Picoseconds{sum};
}

void FilterChain::reset(Millivolts v) {
  const double steady = midpoint_mv_ + gain_ * (v.mv() - midpoint_mv_);
  for (double& s : state_) {
    s = steady;
  }
  passthrough_ = steady;
}

std::array<double, FilterChain::kMaxPoles> FilterChain::alpha_row(
    Picoseconds dt) const {
  std::array<double, kMaxPoles> row{};
  for (std::size_t i = 0; i < taus_.size(); ++i) {
    // Poles split from one rise time share their tau. A pole equal to an
    // earlier one copies its alpha: the same expression of the same
    // operands, so the very same double, for one exp() per distinct tau.
    std::size_t j = 0;
    while (taus_[j] != taus_[i]) {
      ++j;
    }
    row[i] = j < i ? row[j] : 1.0 - std::exp(-dt.ps() / taus_[i]);
  }
  return row;
}

Millivolts FilterChain::step(Millivolts u, Picoseconds dt) {
  double x = midpoint_mv_ + gain_ * (u.mv() - midpoint_mv_);
  passthrough_ = x;
  if (!taus_.empty()) {
    const std::array<double, kMaxPoles> alpha = alpha_row(dt);
    for (std::size_t i = 0; i < taus_.size(); ++i) {
      state_[i] += (x - state_[i]) * alpha[i];
      x = state_[i];
    }
  }
  return Millivolts{x};
}

bool FilterChain::at_rest(Millivolts u, Picoseconds dt_max) const {
  double x = midpoint_mv_ + gain_ * (u.mv() - midpoint_mv_);
  if (taus_.empty()) {
    return passthrough_ == x;
  }
  const std::array<double, kMaxPoles> alpha = alpha_row(dt_max);
  for (std::size_t i = 0; i < taus_.size(); ++i) {
    const double s = state_[i];
    if (s + (x - s) * alpha[i] != s) {
      return false;
    }
    x = s;
  }
  return true;
}

Millivolts FilterChain::output() const {
  if (state_.empty()) {
    return Millivolts{passthrough_};
  }
  return Millivolts{state_.back()};
}

Picoseconds single_pole_rise_2080(Picoseconds tau) {
  return Picoseconds{tau.ps() * kLn4};
}

Picoseconds tau_for_rise_2080(Picoseconds rise) {
  MGT_CHECK(rise.ps() > 0.0);
  return Picoseconds{rise.ps() / kLn4};
}

}  // namespace mgt::sig
