// Dual-Dirac BER extrapolation from bathtub scans.
//
// A production tester cannot count to BER 1e-12 directly; it measures the
// bathtub walls at accessible BERs, fits the Gaussian tails (the dual-
// Dirac model: TJ(BER) = DJ + 2*Q(BER)*RJ_sigma), and extrapolates the eye
// at the target BER. This module provides the Q-scale transform, the
// two-sided wall fit, and the extrapolated opening.
#pragma once

#include <optional>
#include <vector>

#include "analysis/ber.hpp"
#include "util/units.hpp"

namespace mgt::ana {

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.2e-9 over (0, 1)).
// mgtlint:allow(raw-double-param): `p` is a probability.
double inverse_normal_cdf(double p);

/// Q factor for a given BER (per-edge tail probability): Q = Phi^-1(1-ber).
// mgtlint:allow(raw-double-param): a BER is a probability.
double q_of_ber(double ber);

/// Least-squares line y = slope*x + intercept.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
};

/// Least-squares line through (xs[i], ys[i]); xs and ys must have the same
/// size. Empty for fewer than two points or a degenerate (vertical) fit.
std::optional<LineFit> fit_line(const std::vector<double>& xs,
                                const std::vector<double>& ys);

/// Result of fitting one bathtub.
struct BathtubFit {
  // Per-side Gaussian tail fits (time increasing into the eye).
  Picoseconds left_sigma{0.0};
  Picoseconds left_mu{0.0};   // dual-Dirac edge position (Q = 0 intercept)
  Picoseconds right_sigma{0.0};
  Picoseconds right_mu{0.0};
  std::size_t points_used = 0;

  [[nodiscard]] Picoseconds rj_sigma() const {
    return (left_sigma + right_sigma) / 2.0;
  }
  /// Eye opening extrapolated to the given BER.
  // mgtlint:allow(raw-double-param): a BER is a probability.
  [[nodiscard]] Picoseconds eye_at_ber(double ber) const;
  [[nodiscard]] bool valid() const { return points_used >= 4; }
};

/// Fits the dual-Dirac model to a bathtub scan. Points with BER in
/// (ber_min, 0.5) on each wall enter the fit; returns an invalid fit when
/// either wall has fewer than two usable points.
BathtubFit fit_bathtub(const std::vector<BathtubPoint>& scan,
                       // mgtlint:allow(raw-double-param): a BER floor.
                       double ber_min = 1e-6);

}  // namespace mgt::ana
