// Bandwidth models: cascades of single-pole low-pass stages.
//
// A single pole driven by a step settles exponentially; the 20-80 % rise
// time of one pole is tau * ln(4). Cascading two identical poles gives a
// more realistic S-shaped edge. The state update is exact for piecewise-
// constant input, which is what an NRZ edge stream gives the first stage.
// A later stage's input is the previous stage's output, which moves during
// the step; step() holds it at its end-of-step value, so each later stage
// leads the continuous-time response by dt/2. The lead is a constant delay,
// independent of where an edge falls inside the step.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace mgt::sig {

namespace internal {
template <std::size_t N>
class Walk;
}  // namespace internal

/// Cascade of first-order low-pass stages with optional gain applied around
/// a reference midpoint (models channel attenuation of the AC swing while
/// preserving bias).
class FilterChain {
public:
  /// Most poles one chain may hold. The renderer has one window kernel per
  /// pole count up to this cap. The largest chain a bench or example builds
  /// has 7 (a slow-lead DUT behind the 3-pole stimulus).
  static constexpr std::size_t kMaxPoles = 8;

  FilterChain() = default;

  /// Adds a pole with the given time constant; throws past kMaxPoles.
  FilterChain& add_pole(Picoseconds tau);

  /// Adds a pole specified by its 20-80 % rise time (tau = t_r / ln 4).
  FilterChain& add_pole_rise_2080(Picoseconds rise);

  /// Sets AC gain (1.0 = lossless) applied around the midpoint reference.
  // mgtlint:allow(raw-double-param): gain is a voltage ratio.
  FilterChain& set_gain(double gain, Millivolts midpoint);

  [[nodiscard]] std::size_t pole_count() const { return taus_.size(); }
  [[nodiscard]] double gain() const { return gain_; }

  /// Combined 20-80 % rise time estimate (root-sum-square of stages).
  [[nodiscard]] Picoseconds rise_2080_estimate() const;

  /// DC group delay of the cascade (sum of time constants): approximately
  /// how far the 50 %-crossing of an output edge lags the input step. Used
  /// to deskew strobes and eye phase references.
  [[nodiscard]] Picoseconds group_delay() const;

  /// Resets all stage states to the steady-state response of `v`.
  void reset(Millivolts v);

  /// Advances the chain by dt with constant input u; returns the output.
  /// Exact for the first stage; each later stage takes the previous
  /// stage's end-of-step output as its constant input and so leads by dt/2.
  Millivolts step(Millivolts u, Picoseconds dt);

  /// Output without advancing time.
  [[nodiscard]] Millivolts output() const;

  /// True when step(u, dt) leaves every stage state unchanged for every
  /// dt <= dt_max: s + (x - s) * alpha(dt_max) == s at each stage, with x
  /// the scaled input chained stage to stage. alpha grows with dt, and a
  /// fixed point under the largest alpha is one under every smaller alpha,
  /// since IEEE multiply and add round monotonically. With no poles, the
  /// passthrough must already equal the scaled input.
  [[nodiscard]] bool at_rest(Millivolts u, Picoseconds dt_max) const;

private:
  // The renderer's window walk steps its own copy of the stage states.
  template <std::size_t N>
  friend class internal::Walk;

  /// The per-stage alphas 1 - exp(-dt/tau) of a step of dt; entries past
  /// pole_count() are zero. One exp() per distinct tau: a pole whose tau
  /// equals an earlier pole's copies that pole's alpha, the same double.
  /// The renderer's walk computes the rows of the grid step and the rest
  /// bound once per window, and the row of any other step as it takes it.
  /// Defined out of line, so the walk's loops hold a call here and not the
  /// exp() code.
  [[nodiscard]] std::array<double, kMaxPoles> alpha_row(Picoseconds dt) const;

  std::vector<double> taus_;      // per-stage time constants, ps
  std::vector<double> state_;     // per-stage outputs, mV
  double gain_ = 1.0;
  double midpoint_mv_ = 0.0;
  double passthrough_ = 0.0;  // last gain-scaled input, output when no poles
};

/// 20-80 % rise time of a single pole: tau * ln 4.
Picoseconds single_pole_rise_2080(Picoseconds tau);

/// Time constant giving the requested single-pole 20-80 % rise time.
Picoseconds tau_for_rise_2080(Picoseconds rise);

}  // namespace mgt::sig
