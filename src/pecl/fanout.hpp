// Clock fanout buffers.
//
// The PECL section distributes the RF clock to muxes, delay lines and the
// DUT (Fig 15 "Clock Fanout"). Each fanout output adds a fixed skew and a
// small additive random jitter.
#pragma once

#include <vector>

#include "signal/edge.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::pecl {

/// 1:N clock fanout buffer.
class ClockFanout {
public:
  struct Config {
    std::size_t outputs = 4;
    Picoseconds prop_delay{120.0};   // PECL buffer propagation delay
    Picoseconds skew_pp{8.0};        // output-to-output skew, peak-to-peak
    Picoseconds rj_sigma{0.4};       // additive jitter per output
  };

  /// Output skews are drawn once at construction (they are a property of
  /// the physical part, not of the signal).
  ClockFanout(Config config, Rng rng);

  [[nodiscard]] std::size_t outputs() const { return config_.outputs; }
  [[nodiscard]] Picoseconds skew_of(std::size_t output) const;

  /// Produces output `output` for the given input clock/signal.
  sig::EdgeStream drive(const sig::EdgeStream& input, std::size_t output);

private:
  Config config_;
  Rng rng_;
  std::vector<Picoseconds> skews_;
};

}  // namespace mgt::pecl
