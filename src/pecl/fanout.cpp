#include "pecl/fanout.hpp"

#include "signal/jitter.hpp"
#include "util/error.hpp"

namespace mgt::pecl {

ClockFanout::ClockFanout(Config config, Rng rng)
    : config_(config), rng_(rng) {
  MGT_CHECK(config_.outputs > 0);
  skews_.reserve(config_.outputs);
  for (std::size_t i = 0; i < config_.outputs; ++i) {
    skews_.push_back(Picoseconds{
        rng_.uniform(-config_.skew_pp.ps() / 2.0, config_.skew_pp.ps() / 2.0)});
  }
}

Picoseconds ClockFanout::skew_of(std::size_t output) const {
  MGT_CHECK(output < skews_.size(), "fanout output index out of range");
  return skews_[output];
}

sig::EdgeStream ClockFanout::drive(const sig::EdgeStream& input,
                                   std::size_t output) {
  MGT_CHECK(output < skews_.size(), "fanout output index out of range");
  return sig::delay_and_jitter(input, config_.prop_delay + skews_[output],
                               config_.rj_sigma, rng_);
}

}  // namespace mgt::pecl
