// Programmable delay lines.
//
// Both applications require edge placement with 10 ps resolution over a
// 10 ns range with about +-25 ps absolute accuracy (Sections 1, 3, 4). The
// stepped model is a digitally programmed tap chain: delay = gain*code*step
// + INL(code) relative to code 0, where the INL profile is a fixed property
// of the physical part (drawn once, deterministic per instance) and bounded
// so total placement error stays within the accuracy spec. The part's fixed
// insertion-delay error (offset) shifts every edge equally and is reported
// separately (insertion_offset()); it never appears in the code-relative
// delay, which is pinned to zero at the code-0 calibration reference.
//
// TimingMode::kVernier swaps the tap chain for the dual-clock beat
// interpolator (vernier.hpp): sub-picosecond effective steps (0.67 ps per
// arXiv 2502.04948) behind the same code/delay interface, so strobe
// placement, bathtub scans and shmoo drivers work unchanged in either mode.
#pragma once

#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "pecl/vernier.hpp"
#include "signal/edge.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::pecl {

class ProgrammableDelay {
public:
  struct Config {
    /// Code-to-time mapping: stepped tap chain or vernier interpolator.
    TimingMode mode = TimingMode::kStepped;
    Picoseconds step{10.0};          // stepped-mode resolution
    std::size_t code_count = 1024;   // range = step * (code_count-1) ~ 10 ns
    Picoseconds offset_error{4.0};   // fixed insertion-delay error bound
    double gain_error = 0.0008;      // proportional error bound (0.08 %)
    Picoseconds inl_bound{10.0};     // max integral nonlinearity
    Picoseconds rj_sigma{0.3};       // delay-cell random jitter
    /// Vernier-mode parameters (step/code_count/error model); only
    /// consulted when mode == TimingMode::kVernier.
    VernierTimebase::Config vernier{};
  };

  /// Full-scale drift (ps) a severity-1.0 kDelayDrift fault adds: more
  /// than half a unit interval at 5 Gbps, enough to walk a strobe out of
  /// any eye this library produces.
  static constexpr double kDriftFullScalePs = 120.0;

  /// Nominal through-delay of the part, added by apply() to every edge.
  static constexpr Picoseconds kInsertionDelay{900.0};

  /// The part's error profile is drawn once from `rng` at construction.
  ProgrammableDelay(Config config, Rng rng);

  /// Attaches this part's fault slice (kind kDelayDrift; tick = edge
  /// index). An empty slice leaves apply()/fault_drift() untouched.
  void set_faults(fault::ComponentFaults faults);
  [[nodiscard]] const fault::ComponentFaults& faults() const { return faults_; }

  /// Extra delay the scheduled drift faults contribute at `tick`
  /// (severity * kDriftFullScalePs; zero when healthy).
  [[nodiscard]] Picoseconds fault_drift(std::uint64_t tick = 0) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] TimingMode mode() const { return config_.mode; }
  /// Effective programming resolution of the active mode (10 ps stepped,
  /// the beat step in vernier mode). Call sites derive code math from this
  /// so selecting the mode never requires code changes.
  [[nodiscard]] Picoseconds step() const;
  [[nodiscard]] std::size_t code_count() const;
  [[nodiscard]] Picoseconds full_range() const {
    return Picoseconds{step().ps() *
                       static_cast<double>(code_count() - 1)};
  }

  void set_code(std::size_t code);
  [[nodiscard]] std::size_t code() const { return code_; }

  /// Programmed (ideal) delay for the current code, relative to code 0.
  [[nodiscard]] Picoseconds programmed_delay() const;

  /// Actual delay the hardware realizes for `code` relative to code 0
  /// (actual_delay(0) is exactly 0; insertion delay and the fixed offset
  /// error are excluded), including gain/INL errors of the active mode.
  [[nodiscard]] Picoseconds actual_delay(std::size_t code) const;

  /// The part's realized fixed insertion-delay error: applied by apply()
  /// on top of the nominal insertion delay, never part of the
  /// code-relative placement (a calibration soaks it up).
  [[nodiscard]] Picoseconds insertion_offset() const {
    return Picoseconds{offset_ps_};
  }

  /// Worst-case |actual - programmed| across all codes: the placement
  /// accuracy of this specific part (paper: about +-25 ps).
  [[nodiscard]] Picoseconds worst_case_error() const;

  /// Delays every edge of `input` by insertion + offset + actual delay
  /// + RJ.
  sig::EdgeStream apply(const sig::EdgeStream& input);

private:
  Config config_;
  Rng rng_;
  fault::ComponentFaults faults_;
  std::size_t code_ = 0;
  double offset_ps_;
  double gain_;
  std::vector<double> inl_ps_;  // per-code INL profile (stepped mode)
  std::optional<VernierTimebase> vernier_;  // engaged in vernier mode
};

}  // namespace mgt::pecl
