// RF clock source.
//
// An external low-jitter (picosecond-class) RF instrument provides the
// master timing reference for every timing-critical signal (Fig 1:
// "Low-Jitter Clock 0.5~2.5 GHz"). White phase noise is modeled as an
// independent Gaussian offset per edge, which is what a scope triggered on
// the source itself observes.
#pragma once

#include <vector>

#include "fault/fault.hpp"
#include "signal/edge.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::pecl {

class ClockSource {
public:
  struct Config {
    Gigahertz frequency{1.25};
    Picoseconds rj_sigma{1.0};  // instrument-grade phase jitter
  };

  /// Fraction of edges a severity-1.0 kClockGlitch fault displaces, and
  /// the displacement as a fraction of the clock period.
  static constexpr double kGlitchEdgeFraction = 0.1;
  static constexpr double kGlitchPeriodFraction = 0.35;

  ClockSource(Config config, Rng rng);

  /// Attaches this source's fault slice (kind kClockGlitch; tick = edge
  /// index counting every transition). Glitched edges are displaced by
  /// kGlitchPeriodFraction * period * severity; which edges glitch is
  /// decided by a fault-plan RNG keyed on the edge index, so the healthy
  /// jitter sequence is unchanged by scheduling faults.
  void set_faults(fault::ComponentFaults faults);
  [[nodiscard]] const fault::ComponentFaults& faults() const { return faults_; }

  [[nodiscard]] Gigahertz frequency() const { return config_.frequency; }
  [[nodiscard]] Picoseconds period() const { return config_.frequency.period(); }
  [[nodiscard]] Picoseconds rj_sigma() const { return config_.rj_sigma; }

  /// Retunes the instrument; throws outside its 0.5-2.5 GHz range (Fig 1).
  void set_frequency(Gigahertz f);

  /// Generates n_cycles of the clock waveform starting at t0.
  sig::EdgeStream generate(std::size_t n_cycles, Picoseconds t0 = Picoseconds{0});

  /// Nominal rising-edge times (the ideal timing grid downstream logic is
  /// calibrated against).
  [[nodiscard]] std::vector<Picoseconds> rising_edge_grid(
      std::size_t n, Picoseconds t0 = Picoseconds{0}) const;

private:
  Config config_;
  Rng rng_;
  fault::ComponentFaults faults_;
};

}  // namespace mgt::pecl
