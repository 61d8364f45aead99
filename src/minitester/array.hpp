// Parallel wafer probing with arrays of mini-testers (Fig 13).
//
// When WLP compliant leads exist on every die site, the mini-tester is
// replicated so a single touchdown tests many dies at once. Because each
// tester needs only power, clock and USB, the probe-card complexity stays
// manageable and functional test throughput rises by roughly the array
// size ("an order of magnitude", Section 4).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "minitester/minitester.hpp"

namespace mgt::minitester {

class TesterArray {
public:
  struct Config {
    std::size_t testers = 16;            // array size (sites per touchdown)
    double defect_rate = 0.05;           // fraction of defective dies
    std::size_t bist_bits = 320;         // BIST pattern length per die
    /// Scheduled faults; the array consumes the "array" slice (kinds
    /// kDeadPin / kProbeContactLoss; index = site, tick = touchdown).
    /// A faulted site is masked — skipped but still stepped over — so
    /// the wafer completes with those dies flagged for retest.
    fault::FaultPlan faults{};
  };

  /// Mechanical/thermal time per touchdown (stepping the chuck), s.
  static constexpr double kTouchdownOverheadS = 1.5;
  /// Electrical test time per die (dominated by the BIST run), s.
  static constexpr double kPerDieTestS = 0.8;

  TesterArray(Config config, std::uint64_t seed);

  /// Result of probing a whole wafer.
  struct WaferResult {
    std::size_t dies = 0;
    std::size_t touchdowns = 0;
    std::size_t fails = 0;
    std::size_t escapes = 0;       // defective dies the test passed
    std::size_t overkills = 0;     // good dies the test failed
    /// Dies skipped because their site's pin/probe contact was faulted;
    /// they are untested (not fails) and flagged for retest.
    std::size_t masked = 0;
    double total_time_s = 0.0;

    [[nodiscard]] double dies_per_hour() const {
      return total_time_s == 0.0 ? 0.0
                                 : 3600.0 * static_cast<double>(dies) /
                                       total_time_s;
    }
  };

  /// Probes `n_dies`, injecting defects at the configured rate, running
  /// the BIST flow on every die through the signal-level simulation. Dies
  /// are independent tasks (per-die Rng streams derived from the array
  /// seed) executed via util::parallel_for; results are identical at every
  /// MGT_THREADS setting.
  WaferResult probe_wafer(std::size_t n_dies);

  /// Pure throughput model (no signal simulation): wall time to probe
  /// `n_dies` with `n_testers` sites per touchdown. Every time is in
  /// seconds: a production-floor scale no strong type in util/units.hpp
  /// carries.
  static double wafer_time_s(std::size_t n_dies, std::size_t n_testers,
                             // mgtlint:allow(raw-double-param): seconds
                             double touchdown_overhead_s,
                             // mgtlint:allow(raw-double-param): seconds
                             double per_die_test_s);

  [[nodiscard]] const Config& config() const { return config_; }

private:
  Config config_;
  std::uint64_t seed_;
  /// Cumulative touchdown count across probe_wafer calls: the tick domain
  /// for the "minitester.wafer" trace spans.
  std::uint64_t touchdowns_done_ = 0;
};

}  // namespace mgt::minitester
