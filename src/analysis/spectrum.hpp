// Jitter spectrum analysis.
//
// The time-interval-error (TIE) sequence of successive edges, transformed
// to the frequency domain, separates periodic jitter tones (power-supply
// coupling, crosstalk from the RF source, spread-spectrum clocks) from
// the white RJ floor — the measurement a scope's "jitter spectrum" mode
// performs. Complements the statistical decomposition in decompose.hpp.
#pragma once

#include <complex>
#include <vector>

#include "signal/sinks.hpp"
#include "util/units.hpp"

namespace mgt::ana {

/// TIE sequence: per-edge deviation from the ideal grid, uniformly
/// resampled on edge index (edge rate = transition density * bit rate).
struct TieSequence {
  std::vector<double> tie_ps;   // deviation of edge k from its grid slot
  Picoseconds mean_spacing{0.0};  // average time between successive edges

  [[nodiscard]] bool empty() const { return tie_ps.empty(); }
};

/// Extracts the TIE sequence from threshold crossings against the ideal
/// bit grid (t_ref + k*ui).
TieSequence extract_tie(const std::vector<sig::Crossing>& crossings,
                        Picoseconds ui, Picoseconds t_ref = Picoseconds{0});

/// One bin of the jitter spectrum.
struct SpectrumBin {
  Gigahertz frequency{0.0};
  Picoseconds amplitude{0.0};  // 0-to-peak sinusoidal amplitude equivalent
};

/// Magnitude spectrum of the TIE sequence (Hann-windowed DFT; O(n*bins)).
/// Frequencies run from ~1/(n*spacing) up to the edge-rate Nyquist.
std::vector<SpectrumBin> jitter_spectrum(const TieSequence& tie,
                                         std::size_t bins = 256);

/// The strongest tone above `floor_factor` times the median bin (nullopt
/// when the spectrum is flat, i.e. pure RJ).
struct Tone {
  Gigahertz frequency{0.0};
  Picoseconds amplitude{0.0};
};
std::vector<Tone> find_tones(const std::vector<SpectrumBin>& spectrum,
                             // mgtlint:allow(raw-double-param): a ratio.
                             double floor_factor = 6.0);

}  // namespace mgt::ana
