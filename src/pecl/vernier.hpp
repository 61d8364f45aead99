// Vernier dual-clock time-interval generation.
//
// The stepped delay lines (delayline.hpp) bottom out at the paper's 10 ps
// tap pitch. The vernier architecture (arXiv 2502.04948: "An Arbitrary
// Time Interval Generator Based on Vernier Clocks with 0.67 ps Adjustable
// Steps Implemented in FPGA") gets far below that with two PLL clocks
// detuned by a tiny period difference: starting both from a coincidence,
// the edge separation after c cycles is c * (T_main - T_vernier), so the
// *beat step* delta — not any physical tap — sets the resolution. Whole
// main-clock periods provide the coarse range, the beat interpolation the
// sub-picosecond fine placement.
//
// Error model: the coarse counts ride the main clock and are exact by
// construction; the fine interpolation carries a frequency-ratio (gain)
// error from the PLL pair plus a bounded accumulated phase walk that the
// coincidence detector re-anchors once per beat period. Code 0 is the
// coincidence itself and is the calibration reference: actual_delay(0) is
// exactly zero, matching the stepped delay line's code-0 contract.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::pecl {

/// How a programmable delay realizes its code-to-time mapping: the paper's
/// 10 ps stepped tap chain, or the dual-clock vernier interpolator.
/// Selection is pure configuration — every ProgrammableDelay call site
/// works unchanged in either mode.
enum class TimingMode {
  kStepped,
  kVernier,
};

[[nodiscard]] std::string_view to_string(TimingMode mode);

/// The dual-clock interpolator behind TimingMode::kVernier.
class VernierTimebase {
public:
  /// Main PLL output; its period supplies the coarse delay quanta.
  static constexpr Gigahertz kMainClock{1.25};

  struct Config {
    /// Effective beat step T_main - T_vernier (0.67 ps per the source
    /// generator). Must be positive and far below the main period.
    Picoseconds step{0.67};
    /// Programmable range = step * (code_count - 1); 16384 codes at
    /// 0.67 ps cover the ~10 ns placement range of the stepped lines.
    std::size_t code_count = 16384;
    /// Relative error bound of the synthesized frequency ratio: a gain
    /// error on the beat step (the PLLs lock, but to slightly wrong N/M).
    double ratio_error = 2e-5;
    /// Scale of the phase error accumulated across one beat period before
    /// the coincidence detector re-anchors the pair.
    Picoseconds walk_sigma{0.4};
    /// Hard bound on the accumulated walk (detector realignment range).
    Picoseconds walk_bound{2.0};
  };

  /// The part's error profile is drawn once from `rng` at construction.
  VernierTimebase(Config config, Rng rng);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t code_count() const { return config_.code_count; }
  [[nodiscard]] Picoseconds step() const { return config_.step; }
  /// Period of the detuned (vernier) clock, T_main - step.
  [[nodiscard]] Picoseconds vernier_period() const;
  /// Codes per beat period: how many fine steps fit one main period before
  /// the clock pair re-coincides.
  [[nodiscard]] std::size_t codes_per_beat() const;

  /// Programmed (ideal) delay for `code`, relative to code 0.
  [[nodiscard]] Picoseconds programmed_delay(std::size_t code) const;

  /// Delay the interpolator realizes for `code` (relative to code 0 —
  /// actual_delay(0) is exactly 0), including ratio and walk errors.
  [[nodiscard]] Picoseconds actual_delay(std::size_t code) const;

  /// Worst-case |actual - programmed| across all codes.
  [[nodiscard]] Picoseconds worst_case_error() const;

private:
  Config config_;
  double gain_ = 1.0;
  std::vector<double> walk_ps_;  // per-code accumulated phase error
};

}  // namespace mgt::pecl
