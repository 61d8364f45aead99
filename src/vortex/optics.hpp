// Electro-optic conversion chain for the optical test bed (Fig 3).
//
// The DLC's PECL outputs drive lasers of different wavelengths; the
// optical signals are combined (WDM), switched by the Data Vortex, split,
// and recovered by photodetectors. The model tracks a real power budget
// (laser power, combiner/splitter and fiber losses, detector sensitivity)
// and the timing cost of each conversion (delay + additive jitter).
#pragma once

#include <vector>

#include "signal/edge.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::vortex {

/// An optical signal on one wavelength channel.
struct OpticalStream {
  double wavelength_nm = 1550.0;
  double power_dbm = 0.0;
  sig::EdgeStream edges;
};

/// E/O: laser + driver modulating one wavelength.
class LaserDriver {
public:
  struct Config {
    double wavelength_nm = 1550.0;
  };

  static constexpr double kLaunchPowerDbm = 3.0;
  /// Driver + laser turn-on delay, and the additive RJ of the conversion.
  static constexpr Picoseconds kPropDelay{300.0};
  static constexpr Picoseconds kRjSigma{1.0};

  LaserDriver(Config config, Rng rng) : config_(config), rng_(rng) {}

  [[nodiscard]] const Config& config() const { return config_; }

  OpticalStream modulate(const sig::EdgeStream& electrical);

private:
  Config config_;
  Rng rng_;
};

/// Passive optical path: WDM combiner, 10 m of fiber, splitter.
class OpticalPath {
public:
  [[nodiscard]] double total_loss_db() const;
  [[nodiscard]] Picoseconds delay() const;

  OpticalStream propagate(const OpticalStream& in) const;
};

/// O/E: photodetector + limiting amplifier.
class Photodetector {
public:
  /// Minimum detectable optical power.
  static constexpr double kSensitivityDbm = -18.0;
  /// Detector + limiting-amplifier delay, and the additive RJ of the
  /// conversion.
  static constexpr Picoseconds kPropDelay{250.0};
  static constexpr Picoseconds kRjSigma{1.5};

  explicit Photodetector(Rng rng) : rng_(rng) {}

  /// True when the stream's power clears the sensitivity floor.
  [[nodiscard]] bool detects(const OpticalStream& in) const;

  /// Recovers the electrical signal; throws mgt::RecoverableError (an
  /// mgt::Error) when the optical power is below sensitivity (link budget
  /// violated) so callers may squelch the channel and continue degraded.
  sig::EdgeStream detect(const OpticalStream& in);

private:
  Rng rng_;
};

/// End-to-end link budget summary for documentation and tests.
struct LinkBudget {
  double launch_dbm = 0.0;
  double loss_db = 0.0;
  double received_dbm = 0.0;
  double sensitivity_dbm = 0.0;
  [[nodiscard]] double margin_db() const {
    return received_dbm - sensitivity_dbm;
  }
};

/// Budget of one laser -> OpticalPath -> photodetector link.
LinkBudget compute_link_budget();

}  // namespace mgt::vortex
