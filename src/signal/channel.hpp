// Passive interconnect models: cables, probe-card traces, interposer
// redistribution, and WLP compliant leads. A channel contributes propagation
// delay, AC attenuation, and additional bandwidth poles to the signal path.
#pragma once

#include <string>

#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/levels.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// Lossy linear channel: fixed delay + gain + extra low-pass poles.
class Channel {
public:
  struct Config {
    std::string name = "channel";
    Picoseconds delay{0.0};
    /// AC gain (1.0 = lossless, <1 attenuates the swing around midpoint).
    double gain = 1.0;
    /// 20-80 % rise time contributed by the channel's bandwidth (0 = none).
    Picoseconds rise_2080{0.0};
    /// Number of poles realizing that rise time (1 or 2 typical, at most
    /// FilterChain::kMaxPoles).
    int pole_count = 1;
  };

  explicit Channel(Config config);

  [[nodiscard]] const Config& config() const { return config_; }

  /// Shifts the edge stream by the channel delay (the edge-domain part of
  /// the channel; bandwidth and gain act in the analog domain).
  [[nodiscard]] EdgeStream propagate(const EdgeStream& in) const;

  /// Appends this channel's poles and gain to a render chain. `midpoint`
  /// is the bias around which attenuation acts.
  void contribute(FilterChain& chain, Millivolts midpoint) const;

  /// Convenience presets used by the applications.
  static Channel ideal();
  /// Coaxial/SMA hookup used on the optical test-bed board.
  static Channel sma_cable();
  /// WLP compliant lead + capture structure (mini-tester DUT interface).
  static Channel compliant_lead();
  /// Interposer redistribution trace (silicon/LTCC/thin-film).
  static Channel interposer_trace();

private:
  Config config_;
};

}  // namespace mgt::sig
