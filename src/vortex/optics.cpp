#include "vortex/optics.hpp"

#include "signal/jitter.hpp"
#include "util/error.hpp"

namespace mgt::vortex {

namespace {

constexpr double kFiberLengthM = 10.0;
constexpr double kFiberLossDbPerKm = 0.25;
constexpr double kCombinerLossDb = 3.5;  // WDM mux insertion loss
constexpr double kSplitterLossDb = 3.5;  // demux/splitter loss
/// Group delay ~5 ns/m in fiber.
constexpr double kDelayPsPerM = 4900.0;

}  // namespace

OpticalStream LaserDriver::modulate(const sig::EdgeStream& electrical) {
  OpticalStream out;
  out.wavelength_nm = config_.wavelength_nm;
  out.power_dbm = kLaunchPowerDbm;
  out.edges = sig::delay_and_jitter(electrical, kPropDelay, kRjSigma, rng_);
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
  return in.power_dbm >= kSensitivityDbm;
}

sig::EdgeStream Photodetector::detect(const OpticalStream& in) {
  if (!detects(in)) {
    // Recoverable: a receiver can squelch the channel and keep running in
    // a degraded mode instead of tearing the whole test down.
    throw RecoverableError(
        "detector", "optical power below sensitivity: link budget");
  }
  return sig::delay_and_jitter(in.edges, kPropDelay, kRjSigma, rng_);
}

LinkBudget compute_link_budget() {
  LinkBudget budget;
  budget.launch_dbm = LaserDriver::kLaunchPowerDbm;
  budget.loss_db = OpticalPath().total_loss_db();
  budget.received_dbm = budget.launch_dbm - budget.loss_db;
  budget.sensitivity_dbm = Photodetector::kSensitivityDbm;
  return budget;
}

}  // namespace mgt::vortex
