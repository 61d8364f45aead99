#include "signal/jitter.hpp"

#include <cmath>
#include <numbers>

namespace mgt::sig {

Picoseconds JitterSource::offset(Picoseconds t) {
  double dt = 0.0;
  if (spec_.rj_sigma.ps() > 0.0) {
    dt += rng_.gaussian(0.0, spec_.rj_sigma.ps());
  }
  if (spec_.dj_pp.ps() > 0.0) {
    dt += rng_.chance(0.5) ? spec_.dj_pp.ps() / 2.0 : -spec_.dj_pp.ps() / 2.0;
  }
  if (spec_.pj_amplitude.ps() > 0.0) {
    const double omega_per_ps =
        2.0 * std::numbers::pi * spec_.pj_frequency.ghz() * 1e-3;
    dt += spec_.pj_amplitude.ps() * std::sin(omega_per_ps * t.ps());
  }
  return Picoseconds{dt};
}

EdgeStream JitterSource::apply(const EdgeStream& in) {
  return in.retimed([this](Picoseconds t) { return t + offset(t); });
}

EdgeStream delay_and_jitter(const EdgeStream& in, Picoseconds delay,
                            Picoseconds rj_sigma, Rng& rng) {
  return in.retimed([&](Picoseconds t) {
    t += delay;
    if (rj_sigma.ps() > 0.0) {
      t += Picoseconds{rng.gaussian(0.0, rj_sigma.ps())};
    }
    return t;
  });
}

Picoseconds expected_gaussian_pp(std::size_t n, Picoseconds sigma) {
  if (n < 2 || sigma.ps() <= 0.0) {
    return Picoseconds{0.0};
  }
  const double ln_n = std::log(static_cast<double>(n));
  const double a = std::sqrt(2.0 * ln_n);
  // Asymptotic mean of the max of n standard normal deviates.
  const double expected_max =
      a - (std::log(ln_n) + std::log(4.0 * std::numbers::pi)) / (2.0 * a);
  return Picoseconds{2.0 * expected_max * sigma.ps()};
}

Picoseconds expected_total_jitter_pp(std::size_t n, Picoseconds rj_sigma,
                                     Picoseconds dj_pp) {
  return dj_pp + expected_gaussian_pp(n, rj_sigma);
}

}  // namespace mgt::sig
