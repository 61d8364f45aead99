#include "vortex/optics.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mgt::vortex {

namespace {

constexpr double kFiberLengthM = 10.0;
constexpr double kFiberLossDbPerKm = 0.25;
constexpr double kCombinerLossDb = 3.5;  // WDM mux insertion loss
constexpr double kSplitterLossDb = 3.5;  // demux/splitter loss
/// Group delay ~5 ns/m in fiber.
constexpr double kDelayPsPerM = 4900.0;

sig::EdgeStream delay_and_jitter(const sig::EdgeStream& in, Picoseconds delay,
                                 Picoseconds rj_sigma, Rng& rng) {
  sig::EdgeStream out(in.initial_level());
  double last = -1e300;
  for (const auto& tr : in.transitions()) {
    double t = tr.time.ps() + delay.ps();
    if (rj_sigma.ps() > 0.0) {
      t += rng.gaussian(0.0, rj_sigma.ps());
    }
    t = std::max(t, last + 1e-3);
    out.push(Picoseconds{t}, tr.level);
    last = t;
  }
  return out;
}

}  // namespace

OpticalStream LaserDriver::modulate(const sig::EdgeStream& electrical) {
  OpticalStream out;
  out.wavelength_nm = config_.wavelength_nm;
  out.power_dbm = kLaunchPowerDbm;
  out.edges = delay_and_jitter(electrical, config_.prop_delay,
                               config_.rj_sigma, rng_);
  return out;
}

double OpticalPath::total_loss_db() const {
  return kCombinerLossDb + kSplitterLossDb +
         kFiberLossDbPerKm * kFiberLengthM / 1000.0;
}

Picoseconds OpticalPath::delay() const {
  return Picoseconds{kDelayPsPerM * kFiberLengthM};
}

OpticalStream OpticalPath::propagate(const OpticalStream& in) const {
  OpticalStream out = in;
  out.power_dbm -= total_loss_db();
  out.edges = in.edges.shifted(delay());
  return out;
}

bool Photodetector::detects(const OpticalStream& in) const {
  return in.power_dbm >= config_.sensitivity_dbm;
}

sig::EdgeStream Photodetector::detect(const OpticalStream& in) {
  if (!detects(in)) {
    // Recoverable: a receiver can squelch the channel and keep running in
    // a degraded mode instead of tearing the whole test down.
    throw RecoverableError(
        "detector", "optical power below sensitivity: link budget");
  }
  return delay_and_jitter(in.edges, config_.prop_delay, config_.rj_sigma,
                          rng_);
}

LinkBudget compute_link_budget(const Photodetector::Config& detector) {
  LinkBudget budget;
  budget.launch_dbm = LaserDriver::kLaunchPowerDbm;
  budget.loss_db = OpticalPath().total_loss_db();
  budget.received_dbm = budget.launch_dbm - budget.loss_db;
  budget.sensitivity_dbm = detector.sensitivity_dbm;
  return budget;
}

}  // namespace mgt::vortex
