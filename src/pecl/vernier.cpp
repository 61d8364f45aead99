#include "pecl/vernier.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mgt::pecl {

std::string_view to_string(TimingMode mode) {
  switch (mode) {
    case TimingMode::kStepped:
      return "stepped";
    case TimingMode::kVernier:
      return "vernier";
  }
  return "unknown";
}

VernierTimebase::VernierTimebase(Config config, Rng rng) : config_(config) {
  MGT_CHECK(config_.step.ps() > 0.0, "vernier step must be positive");
  MGT_CHECK(config_.code_count >= 2, "vernier needs at least two codes");
  MGT_CHECK(config_.main_clock.ghz() > 0.0);
  MGT_CHECK(config_.step.ps() < config_.main_clock.period().ps() / 2.0,
            "beat step must be far below the main period");
  MGT_CHECK(config_.ratio_error >= 0.0 && config_.walk_sigma.ps() >= 0.0 &&
            config_.walk_bound.ps() >= 0.0);

  gain_ = 1.0 + rng.uniform(-config_.ratio_error, config_.ratio_error);

  // Accumulated phase walk: within one beat period the pair free-runs and
  // error integrates as a bounded random walk; at each re-coincidence the
  // detector pulls the accumulated error back toward zero. Code 0 is the
  // anchored coincidence itself.
  walk_ps_.resize(config_.code_count);
  const std::size_t beat = codes_per_beat();
  const double per_code_sigma =
      config_.walk_sigma.ps() / std::sqrt(static_cast<double>(beat));
  double walk = 0.0;
  for (std::size_t c = 0; c < config_.code_count; ++c) {
    if (c == 0) {
      walk_ps_[0] = 0.0;
      continue;
    }
    if (beat > 0 && c % beat == 0) {
      walk *= 0.5;  // coincidence detector realigns the pair
    }
    walk += rng.gaussian(0.0, per_code_sigma);
    walk = std::clamp(walk, -config_.walk_bound.ps(), config_.walk_bound.ps());
    walk_ps_[c] = walk;
  }
}

Picoseconds VernierTimebase::vernier_period() const {
  return config_.main_clock.period() - config_.step;
}

std::size_t VernierTimebase::codes_per_beat() const {
  return static_cast<std::size_t>(
      std::floor(config_.main_clock.period().ps() / config_.step.ps()));
}

Picoseconds VernierTimebase::programmed_delay(std::size_t code) const {
  MGT_CHECK(code < config_.code_count, "vernier code out of range");
  return Picoseconds{static_cast<double>(code) * config_.step.ps()};
}

Picoseconds VernierTimebase::actual_delay(std::size_t code) const {
  MGT_CHECK(code < config_.code_count, "vernier code out of range");
  const double ideal = static_cast<double>(code) * config_.step.ps();
  return Picoseconds{gain_ * ideal + walk_ps_[code]};
}

Picoseconds VernierTimebase::worst_case_error() const {
  double worst = 0.0;
  for (std::size_t c = 0; c < config_.code_count; ++c) {
    worst = std::max(worst, std::abs(actual_delay(c).ps() -
                                     programmed_delay(c).ps()));
  }
  return Picoseconds{worst};
}

}  // namespace mgt::pecl
