#include "pecl/delayline.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace mgt::pecl {

ProgrammableDelay::ProgrammableDelay(Config config, Rng rng)
    : config_(config), rng_(rng) {
  MGT_CHECK(config_.step.ps() > 0.0);
  MGT_CHECK(config_.code_count >= 2);
  offset_ps_ = rng_.uniform(-config_.offset_error.ps(),
                            config_.offset_error.ps());
  gain_ = 1.0 + rng_.uniform(-config_.gain_error, config_.gain_error);

  if (config_.mode == TimingMode::kVernier) {
    vernier_.emplace(config_.vernier, rng_.fork());
    return;
  }

  // INL: a slow bow (typical of tapped delay chains) plus small per-code
  // mismatch, both bounded by inl_bound.
  inl_ps_.resize(config_.code_count);
  const double bow_amp = 0.6 * config_.inl_bound.ps();
  const double noise_amp = 0.35 * config_.inl_bound.ps();
  const double phase = rng_.uniform(0.0, 2.0 * std::numbers::pi);
  for (std::size_t c = 0; c < config_.code_count; ++c) {
    const double x = static_cast<double>(c) /
                     static_cast<double>(config_.code_count - 1);
    const double bow = bow_amp * std::sin(std::numbers::pi * x + phase) *
                       std::sin(std::numbers::pi * x);
    const double mismatch = rng_.uniform(-noise_amp, noise_amp);
    inl_ps_[c] = bow + mismatch;
  }
  inl_ps_[0] = 0.0;  // code 0 is the calibration reference
}

void ProgrammableDelay::set_faults(fault::ComponentFaults faults) {
  faults_ = std::move(faults);
}

Picoseconds ProgrammableDelay::fault_drift(std::uint64_t tick) const {
  if (!faults_.any(fault::FaultKind::kDelayDrift)) {
    return Picoseconds{0.0};
  }
  return Picoseconds{faults_.severity(fault::FaultKind::kDelayDrift, tick) *
                     kDriftFullScalePs};
}

Picoseconds ProgrammableDelay::step() const {
  return vernier_ ? vernier_->step() : config_.step;
}

std::size_t ProgrammableDelay::code_count() const {
  return vernier_ ? vernier_->code_count() : config_.code_count;
}

void ProgrammableDelay::set_code(std::size_t code) {
  MGT_CHECK(code < code_count(), "delay code out of range");
  code_ = code;
}

Picoseconds ProgrammableDelay::programmed_delay() const {
  return Picoseconds{static_cast<double>(code_) * step().ps()};
}

Picoseconds ProgrammableDelay::actual_delay(std::size_t code) const {
  if (vernier_) {
    return vernier_->actual_delay(code);
  }
  MGT_CHECK(code < config_.code_count, "delay code out of range");
  const double ideal = static_cast<double>(code) * config_.step.ps();
  return Picoseconds{gain_ * ideal + inl_ps_[code]};
}

Picoseconds ProgrammableDelay::worst_case_error() const {
  if (vernier_) {
    return vernier_->worst_case_error();
  }
  double worst = 0.0;
  for (std::size_t c = 0; c < config_.code_count; ++c) {
    const double ideal = static_cast<double>(c) * config_.step.ps();
    worst = std::max(worst, std::abs(actual_delay(c).ps() - ideal));
  }
  return Picoseconds{worst};
}

sig::EdgeStream ProgrammableDelay::apply(const sig::EdgeStream& input) {
  const double base =
      kInsertionDelay.ps() + offset_ps_ + actual_delay(code_).ps();
  const bool drifting = faults_.any(fault::FaultKind::kDelayDrift);
  std::uint64_t edge = 0;
  return input.retimed([&](Picoseconds t) {
    t += Picoseconds{base};
    if (config_.rj_sigma.ps() > 0.0) {
      t += Picoseconds{rng_.gaussian(0.0, config_.rj_sigma.ps())};
    }
    // After the RJ draw: a drift fault leaves the healthy draws alone.
    if (drifting) {
      t += fault_drift(edge);
    }
    ++edge;
    return t;
  });
}

}  // namespace mgt::pecl
