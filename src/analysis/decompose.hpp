// Jitter decomposition: separating random from deterministic jitter.
//
// A scope histogram of threshold-crossing times (TIE) mixes bounded
// deterministic jitter with unbounded Gaussian tails. The dual-Dirac
// method fits the Gaussian tails on the Q-scale and reads DJ as the
// separation of the two fitted means: TJ(BER) = DJ(dd) + 2*Q(BER)*RJ.
// This is how the paper's "24 ps p-p / 3.2 ps rms" (Fig 9, pure RJ) and
// "46.7 ps p-p" (Fig 7, RJ+DJ) numbers relate to one another.
#pragma once

#include <vector>

#include "signal/sinks.hpp"
#include "util/units.hpp"

namespace mgt::ana {

struct JitterDecomposition {
  Picoseconds rj_sigma{0.0};   // fitted Gaussian sigma (tail average)
  Picoseconds dj_pp{0.0};      // dual-Dirac deterministic jitter
  std::size_t samples = 0;
  bool valid = false;

  /// Total jitter peak-to-peak extrapolated to the given BER.
  // mgtlint:allow(raw-double-param): a BER is a probability.
  [[nodiscard]] Picoseconds tj_at_ber(double ber) const;
};

/// Decomposes crossover jitter from threshold crossings folded on `ui`.
/// `tail_fraction` selects how deep into each CDF tail the Q-scale fit
/// reaches; it must stay well below the weight of one Dirac component
/// (0.06 default) or the blend inflates the fitted sigma.
JitterDecomposition decompose_jitter(
    const std::vector<sig::Crossing>& crossings, Picoseconds ui,
    Picoseconds t_ref = Picoseconds{0},
    double tail_fraction = 0.06);  // mgtlint:allow(raw-double-param)

}  // namespace mgt::ana
