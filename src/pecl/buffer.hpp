// Output buffers.
//
// The final output stage sets the analog character of the stimulus: the
// optical test bed uses SiGe buffers with 70-75 ps (20-80 %) transitions
// and very low added jitter (Section 3); the mini-tester's differential
// I/O buffers show ~120 ps rise (Section 4). Both offer programmable
// high/low levels and midpoint bias through voltage-tuning DACs (Figs 10
// and 11).
#pragma once

#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/levels.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::pecl {

class OutputBuffer {
public:
  struct Config {
    Picoseconds rise_2080{72.0};    // SiGe default (paper: 70-75 ps)
    Picoseconds prop_delay{160.0};
    Picoseconds rj_sigma{2.4};      // "very little jitter"
    sig::PeclLevels levels{};
    /// Bandwidth realized as this many cascaded poles (2 = S-shaped edges),
    /// at most sig::FilterChain::kMaxPoles.
    int pole_count = 2;
  };

  OutputBuffer(Config config, Rng rng);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const sig::PeclLevels& levels() const { return config_.levels; }

  /// Programs the high level (snapped to the DAC grid); Fig 10 operation.
  void set_voh(Millivolts voh);
  /// Programs the low level (snapped to the DAC grid).
  void set_vol(Millivolts vol);
  /// Programs the swing, keeping the midpoint (Fig 11 operation).
  void set_swing(Millivolts swing);
  /// Programs the midpoint bias, keeping the swing.
  void set_midpoint(Millivolts mid);

  /// Applies propagation delay and the buffer's additive RJ to the edges.
  sig::EdgeStream apply(const sig::EdgeStream& input);

  /// Appends this buffer's bandwidth poles to a render chain.
  void contribute(sig::FilterChain& chain) const;

  /// Complete filter chain for rendering just this buffer's output.
  [[nodiscard]] sig::FilterChain make_chain() const;

  /// 20-80 % step-response rise time of the realized pole cascade.
  [[nodiscard]] Picoseconds realized_rise_2080() const;

private:
  [[nodiscard]] Millivolts snap(Millivolts v) const;

  Config config_;
  Rng rng_;
};

}  // namespace mgt::pecl
