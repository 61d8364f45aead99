// PECL logic levels.
//
// The paper's output stage lets the test engineer program the high level,
// the low level, and the midpoint bias independently through voltage-tuning
// DACs (Figs 10 and 11). This type captures a level pair and the programmed
// adjustments.
#pragma once

#include "util/error.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// A VOL/VOH pair in millivolts.
struct PeclLevels {
  Millivolts voh{2400.0};  // LVPECL-style defaults (3.3 V supply)
  Millivolts vol{1600.0};

  [[nodiscard]] Millivolts swing() const { return voh - vol; }
  [[nodiscard]] Millivolts midpoint() const {
    return Millivolts{(voh.mv() + vol.mv()) / 2.0};
  }
  /// Voltage at the given fraction of the swing (0 = VOL, 1 = VOH).
  // mgtlint:allow(raw-double-param): a fraction of the swing.
  [[nodiscard]] Millivolts at_fraction(double f) const {
    return Millivolts{vol.mv() + f * swing().mv()};
  }

  /// New levels with the high level moved to `voh` (Fig 10 style control).
  [[nodiscard]] PeclLevels with_voh(Millivolts new_voh) const {
    PeclLevels out = *this;
    out.voh = new_voh;
    MGT_CHECK(out.voh > out.vol, "VOH must stay above VOL");
    return out;
  }

  /// New levels with the low level moved to `vol`.
  [[nodiscard]] PeclLevels with_vol(Millivolts new_vol) const {
    PeclLevels out = *this;
    out.vol = new_vol;
    MGT_CHECK(out.voh > out.vol, "VOH must stay above VOL");
    return out;
  }

  /// New levels with the same midpoint but the given swing (Fig 11 style
  /// amplitude control).
  [[nodiscard]] PeclLevels with_swing(Millivolts new_swing) const {
    MGT_CHECK(new_swing.mv() > 0.0, "swing must be positive");
    const Millivolts mid = midpoint();
    return PeclLevels{Millivolts{mid.mv() + new_swing.mv() / 2.0},
                      Millivolts{mid.mv() - new_swing.mv() / 2.0}};
  }

  /// New levels translated so the midpoint bias sits at `mid`.
  [[nodiscard]] PeclLevels with_midpoint(Millivolts mid) const {
    const Millivolts half{swing().mv() / 2.0};
    return PeclLevels{mid + half, mid - half};
  }
};

/// Rails as seen after AC attenuation by `gain` around the midpoint (what
/// a lossy channel does to the levels at the measurement plane).
[[nodiscard]] inline PeclLevels attenuated(const PeclLevels& levels,
                                           // mgtlint:allow(raw-double-param)
                                           double gain) {
  const double mid = levels.midpoint().mv();
  return PeclLevels{Millivolts{mid + gain * (levels.voh.mv() - mid)},
                    Millivolts{mid + gain * (levels.vol.mv() - mid)}};
}

}  // namespace mgt::sig
