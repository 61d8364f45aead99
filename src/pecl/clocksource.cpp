#include "pecl/clocksource.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mgt::pecl {
namespace {

/// Supported tuning range of the instrument (Fig 1).
constexpr Gigahertz kMinFrequency{0.5};
constexpr Gigahertz kMaxFrequency{2.5};

}  // namespace

ClockSource::ClockSource(Config config, Rng rng)
    : config_(config), rng_(rng) {
  set_frequency(config_.frequency);
  MGT_CHECK(config_.rj_sigma.ps() >= 0.0);
}

void ClockSource::set_frequency(Gigahertz f) {
  MGT_CHECK(f.ghz() >= kMinFrequency.ghz() && f.ghz() <= kMaxFrequency.ghz(),
            "RF source frequency outside instrument range");
  config_.frequency = f;
}

void ClockSource::set_faults(fault::ComponentFaults faults) {
  faults_ = std::move(faults);
}

sig::EdgeStream ClockSource::generate(std::size_t n_cycles, Picoseconds t0) {
  const Picoseconds period = config_.frequency.period();
  const bool glitching = faults_.any(fault::FaultKind::kClockGlitch);
  auto jitter = [this, period, glitching](std::size_t edge, Picoseconds) {
    double dt = 0.0;
    if (config_.rj_sigma.ps() > 0.0) {
      dt = rng_.gaussian(0.0, config_.rj_sigma.ps());
    }
    if (glitching && faults_.active(fault::FaultKind::kClockGlitch, edge)) {
      // Keyed on the edge index, not rng_, so scheduling a fault leaves
      // the healthy jitter sequence byte-identical.
      Rng fault_rng = faults_.rng(edge);
      const double sev = faults_.severity(fault::FaultKind::kClockGlitch, edge);
      if (fault_rng.chance(std::min(1.0, kGlitchEdgeFraction * sev))) {
        dt += kGlitchPeriodFraction * period.ps() * sev;
      }
    }
    return Picoseconds{dt};
  };
  const bool need_offset = config_.rj_sigma.ps() > 0.0 || glitching;
  return sig::EdgeStream::clock(period, n_cycles, t0,
                                need_offset ? sig::EdgeOffsetFn(jitter)
                                            : sig::EdgeOffsetFn(nullptr));
}

std::vector<Picoseconds> ClockSource::rising_edge_grid(std::size_t n,
                                                       Picoseconds t0) const {
  std::vector<Picoseconds> grid;
  grid.reserve(n);
  const double period = config_.frequency.period().ps();
  for (std::size_t k = 0; k < n; ++k) {
    grid.push_back(Picoseconds{t0.ps() + static_cast<double>(k) * period});
  }
  return grid;
}

}  // namespace mgt::pecl
