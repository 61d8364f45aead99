#include "analysis/berextrap.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mgt::ana {

double inverse_normal_cdf(double p) {
  MGT_CHECK(p > 0.0 && p < 1.0, "inverse CDF domain is (0, 1)");
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  return x;
}

double q_of_ber(double ber) {
  MGT_CHECK(ber > 0.0 && ber < 1.0);
  return inverse_normal_cdf(1.0 - ber);
}

Picoseconds BathtubFit::eye_at_ber(double ber) const {
  const double q = q_of_ber(ber);
  const Picoseconds left_edge = left_mu + q * left_sigma;
  const Picoseconds right_edge = right_mu - q * right_sigma;
  return right_edge - left_edge;  // negative = closed at this BER
}

std::optional<LineFit> fit_line(const std::vector<double>& xs,
                                const std::vector<double>& ys) {
  MGT_CHECK(xs.size() == ys.size(), "fit_line needs one y per x");
  if (xs.size() < 2) {
    return std::nullopt;
  }
  const auto n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    return std::nullopt;
  }
  const double m = (n * sxy - sx * sy) / denom;
  return LineFit{m, (sy - m * sx) / n};
}

BathtubFit fit_bathtub(const std::vector<BathtubPoint>& scan,
                       double ber_min) {
  BathtubFit fit;
  if (scan.size() < 4) {
    return fit;
  }
  // Split at the scan's best point: left wall before it, right wall after.
  std::size_t best = 0;
  for (std::size_t i = 0; i < scan.size(); ++i) {
    if (scan[i].ber < scan[best].ber) {
      best = i;
    }
  }

  std::vector<double> lx, lq, rx, rq;
  for (std::size_t i = 0; i < scan.size(); ++i) {
    const double ber = scan[i].ber;
    if (ber <= ber_min || ber >= 0.5) {
      continue;
    }
    const double q = q_of_ber(ber);
    if (i < best) {
      lx.push_back(scan[i].strobe_offset.ps());
      lq.push_back(q);
    } else if (i > best) {
      rx.push_back(scan[i].strobe_offset.ps());
      rq.push_back(q);
    }
  }

  // Left wall: Q rises moving right (into the eye): Q = (x - mu)/sigma.
  const auto left = fit_line(lx, lq);
  const bool left_ok = left && left->slope > 0.0;
  // Right wall: Q falls moving right: Q = (mu - x)/sigma.
  const auto right = fit_line(rx, rq);
  const bool right_ok = right && right->slope < 0.0;
  if (!left_ok || !right_ok) {
    return fit;
  }
  fit.left_sigma = Picoseconds{1.0 / left->slope};
  fit.left_mu = Picoseconds{-left->intercept / left->slope};
  fit.right_sigma = Picoseconds{-1.0 / right->slope};
  fit.right_mu = Picoseconds{-right->intercept / right->slope};
  fit.points_used = lx.size() + rx.size();
  return fit;
}

}  // namespace mgt::ana
