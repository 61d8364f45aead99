#include "signal/channel.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mgt::sig {

Channel::Channel(Config config) : config_(std::move(config)) {
  MGT_CHECK(config_.gain > 0.0 && config_.gain <= 1.0,
            "passive channel gain must be in (0, 1]");
  MGT_CHECK(config_.pole_count >= 1);
  MGT_CHECK(static_cast<std::size_t>(config_.pole_count) <=
            FilterChain::kMaxPoles);
  MGT_CHECK(config_.delay.ps() >= 0.0);
}

EdgeStream Channel::propagate(const EdgeStream& in) const {
  return in.shifted(config_.delay);
}

void Channel::contribute(FilterChain& chain, Millivolts midpoint) const {
  if (config_.rise_2080.ps() > 0.0) {
    // Split the requested rise time across pole_count identical poles so the
    // cascade's RSS rise matches the spec.
    const double per_pole =
        config_.rise_2080.ps() / std::sqrt(static_cast<double>(config_.pole_count));
    for (int i = 0; i < config_.pole_count; ++i) {
      chain.add_pole_rise_2080(Picoseconds{per_pole});
    }
  }
  if (config_.gain != 1.0) {
    chain.set_gain(config_.gain * chain.gain(), midpoint);
  }
}

Channel Channel::ideal() { return Channel{Config{.name = "ideal"}}; }

Channel Channel::sma_cable() {
  return Channel{Config{.name = "sma-cable",
                        .delay = Picoseconds{350.0},   // ~7 cm of coax
                        .gain = 0.97,
                        .rise_2080 = Picoseconds{25.0},
                        .pole_count = 1}};
}

Channel Channel::compliant_lead() {
  return Channel{Config{.name = "compliant-lead",
                        .delay = Picoseconds{18.0},
                        .gain = 0.93,
                        .rise_2080 = Picoseconds{40.0},
                        .pole_count = 1}};
}

Channel Channel::interposer_trace() {
  return Channel{Config{.name = "interposer",
                        .delay = Picoseconds{60.0},
                        .gain = 0.96,
                        .rise_2080 = Picoseconds{30.0},
                        .pole_count = 1}};
}

}  // namespace mgt::sig
