#include "pecl/buffer.hpp"

#include <cmath>

#include "signal/jitter.hpp"
#include "util/error.hpp"

namespace mgt::pecl {
namespace {

/// Voltage-tuning DAC resolution; programmed levels snap to this grid.
constexpr Millivolts kDacStep{20.0};
/// DAC compliance range for either rail.
constexpr Millivolts kVMin{1000.0};
constexpr Millivolts kVMax{3000.0};

}  // namespace

OutputBuffer::OutputBuffer(Config config, Rng rng)
    : config_(config), rng_(rng) {
  MGT_CHECK(config_.rise_2080.ps() > 0.0);
  MGT_CHECK(config_.pole_count >= 1);
  MGT_CHECK(static_cast<std::size_t>(config_.pole_count) <=
            sig::FilterChain::kMaxPoles);
  MGT_CHECK(config_.levels.voh > config_.levels.vol);
}

Millivolts OutputBuffer::snap(Millivolts v) const {
  MGT_CHECK(v >= kVMin && v <= kVMax, "level outside DAC compliance range");
  const double steps = std::round(v.mv() / kDacStep.mv());
  return Millivolts{steps * kDacStep.mv()};
}

void OutputBuffer::set_voh(Millivolts voh) {
  config_.levels = config_.levels.with_voh(snap(voh));
}

void OutputBuffer::set_vol(Millivolts vol) {
  config_.levels = config_.levels.with_vol(snap(vol));
}

void OutputBuffer::set_swing(Millivolts swing) {
  const sig::PeclLevels target = config_.levels.with_swing(swing);
  config_.levels = sig::PeclLevels{snap(target.voh), snap(target.vol)};
}

void OutputBuffer::set_midpoint(Millivolts mid) {
  const sig::PeclLevels target = config_.levels.with_midpoint(mid);
  config_.levels = sig::PeclLevels{snap(target.voh), snap(target.vol)};
}

sig::EdgeStream OutputBuffer::apply(const sig::EdgeStream& input) {
  return sig::delay_and_jitter(input, config_.prop_delay, config_.rj_sigma,
                               rng_);
}

void OutputBuffer::contribute(sig::FilterChain& chain) const {
  // Split the rise budget across the poles so the cascade's RSS rise time
  // equals the configured value.
  const double per_pole = config_.rise_2080.ps() /
                          std::sqrt(static_cast<double>(config_.pole_count));
  for (int i = 0; i < config_.pole_count; ++i) {
    chain.add_pole_rise_2080(Picoseconds{per_pole});
  }
}

sig::FilterChain OutputBuffer::make_chain() const {
  sig::FilterChain chain;
  contribute(chain);
  return chain;
}

Picoseconds OutputBuffer::realized_rise_2080() const {
  return make_chain().rise_2080_estimate();
}

}  // namespace mgt::pecl
