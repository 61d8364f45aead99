// High-speed PECL sampling circuit (the mini-tester's capture path,
// Fig 15 "Data Capture" + "Clock Delay"). A strobe derived from the RF
// clock through a programmable delay samples the returned waveform with
// 10 ps placement resolution; the latch has a finite aperture (setup/hold)
// window within which capture is metastable.
#pragma once

#include <vector>

#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/levels.hpp"
#include "signal/sinks.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::pecl {

class PeclSampler {
public:
  /// RMS random jitter the strobe picks up on its way from the RF clock.
  static constexpr Picoseconds kStrobeRjSigma{1.5};
  /// Setup+hold window of the latch: a threshold crossing within
  /// +-kAperture/2 of the strobe captures a random bit.
  static constexpr Picoseconds kAperture{8.0};
  /// Render step used when digitizing the waveform under test.
  static constexpr Picoseconds kSampleStep{0.5};

  explicit PeclSampler(Rng rng) : rng_(rng) {}

  /// Uniform strobe schedule: first strobe at `first`, then every `period`.
  static std::vector<Picoseconds> strobe_schedule(Picoseconds first,
                                                  Picoseconds period,
                                                  std::size_t count);

  /// Result of one capture run.
  struct Capture {
    BitVector bits;
    std::vector<Millivolts> analog;
  };

  /// Renders `stream` (levels + bandwidth chain) and captures it at the
  /// given strobes, deciding each bit at the midpoint of the levels as the
  /// chain's DC gain delivers them. The render window automatically pads
  /// around the strobes so the filter is settled.
  Capture capture(const sig::EdgeStream& stream,
                  const sig::FilterChain& chain,
                  const sig::PeclLevels& levels,
                  const std::vector<Picoseconds>& strobes);

private:
  Rng rng_;
};

}  // namespace mgt::pecl
