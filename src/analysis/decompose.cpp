#include "analysis/decompose.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/berextrap.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace mgt::ana {

Picoseconds JitterDecomposition::tj_at_ber(double ber) const {
  return Picoseconds{dj_pp.ps() + 2.0 * q_of_ber(ber) * rj_sigma.ps()};
}

JitterDecomposition decompose_jitter(
    const std::vector<sig::Crossing>& crossings, Picoseconds ui,
    Picoseconds t_ref, double tail_fraction) {
  MGT_CHECK(ui.ps() > 0.0);
  MGT_CHECK(tail_fraction > 0.0 && tail_fraction < 0.5);

  JitterDecomposition out;
  out.samples = crossings.size();
  if (crossings.size() < 100) {
    return out;  // not enough statistics for tail fits
  }

  // Fold to phases and recenter around the cluster (same approach as
  // measure_crossover_jitter).
  std::vector<double> phases;
  phases.reserve(crossings.size());
  for (const auto& c : crossings) {
    phases.push_back(positive_mod(c.time.ps() - t_ref.ps(), ui.ps()));
  }
  const double center0 = phases.front();
  for (double& p : phases) {
    p = center0 +
        (positive_mod(p - center0 + ui.ps() / 2.0, ui.ps()) - ui.ps() / 2.0);
  }
  std::sort(phases.begin(), phases.end());

  // Q-scale fit on each empirical-CDF tail: for the left tail,
  // Q(p) = (x - mu_l)/sigma_l where p = CDF(x).
  const auto n = phases.size();
  std::vector<double> lx, lq, rx, rq;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    if (p < tail_fraction && p > 1.0 / static_cast<double>(n)) {
      lx.push_back(phases[i]);
      lq.push_back(inverse_normal_cdf(p));
    } else if (p > 1.0 - tail_fraction &&
               p < 1.0 - 1.0 / static_cast<double>(n)) {
      rx.push_back(phases[i]);
      rq.push_back(inverse_normal_cdf(p));
    }
  }
  if (lq.size() < 3 || rq.size() < 3) {
    return out;
  }
  const auto left = fit_line(lq, lx);
  const auto right = fit_line(rq, rx);
  // x = sigma*Q + mu on both tails (sigma = slope).
  if (!left || !right || left->slope <= 0.0 || right->slope <= 0.0) {
    return out;
  }
  const double sigma = (left->slope + right->slope) / 2.0;
  // Separation of the dual-Dirac means.
  const double dj = right->intercept - left->intercept;
  out.rj_sigma = Picoseconds{sigma};
  out.dj_pp = Picoseconds{std::max(0.0, dj)};
  out.valid = true;
  return out;
}

}  // namespace mgt::ana
