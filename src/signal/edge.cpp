#include "signal/edge.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mgt::sig {

namespace {
// Minimum spacing enforced between jittered transitions. Physically a pulse
// squeezed below this survives as a sliver; keeping a floor preserves the
// alternating-level invariant without changing any statistics that matter.
constexpr double kMinSpacingPs = 1e-3;
}  // namespace

EdgeStream EdgeStream::from_bits(const BitVector& bits, Picoseconds ui,
                                 Picoseconds t0, const EdgeOffsetFn& offset) {
  MGT_CHECK(ui.ps() > 0.0);
  EdgeStream out(bits.empty() ? false : bits.get(0));
  double last_time = -1e300;
  for (std::size_t k = 1; k < bits.size(); ++k) {
    if (bits.get(k) == bits.get(k - 1)) {
      continue;
    }
    const Picoseconds nominal{t0.ps() + static_cast<double>(k) * ui.ps()};
    double t = nominal.ps();
    if (offset) {
      t += offset(k, nominal).ps();
    }
    t = std::max(t, last_time + kMinSpacingPs);
    out.transitions_.push_back({Picoseconds{t}, bits.get(k)});
    last_time = t;
  }
  return out;
}

EdgeStream EdgeStream::clock(Picoseconds period, std::size_t n_cycles,
                             Picoseconds t0, const EdgeOffsetFn& offset) {
  MGT_CHECK(period.ps() > 0.0);
  EdgeStream out(false);
  const double half = period.ps() / 2.0;
  double last_time = -1e300;
  for (std::size_t k = 0; k < 2 * n_cycles; ++k) {
    const Picoseconds nominal{t0.ps() + static_cast<double>(k) * half};
    double t = nominal.ps();
    if (offset) {
      t += offset(k, nominal).ps();
    }
    t = std::max(t, last_time + kMinSpacingPs);
    out.transitions_.push_back({Picoseconds{t}, k % 2 == 0});
    last_time = t;
  }
  return out;
}

void EdgeStream::push(Picoseconds t, bool level) {
  const bool prev_level =
      transitions_.empty() ? initial_ : transitions_.back().level;
  MGT_CHECK(level != prev_level, "push must change the level");
  if (!transitions_.empty()) {
    MGT_CHECK(t > transitions_.back().time, "push must advance time");
  }
  transitions_.push_back({t, level});
}

bool EdgeStream::level_at(Picoseconds t) const {
  auto it = std::upper_bound(
      transitions_.begin(), transitions_.end(), t,
      [](Picoseconds lhs, const Transition& tr) { return lhs < tr.time; });
  if (it == transitions_.begin()) {
    return initial_;
  }
  return std::prev(it)->level;
}

EdgeStream EdgeStream::shifted(Picoseconds dt) const {
  EdgeStream out(initial_);
  out.transitions_.reserve(transitions_.size());
  for (const auto& tr : transitions_) {
    out.transitions_.push_back({tr.time + dt, tr.level});
  }
  return out;
}

EdgeStream EdgeStream::inverted() const {
  EdgeStream out(!initial_);
  out.transitions_.reserve(transitions_.size());
  for (const auto& tr : transitions_) {
    out.transitions_.push_back({tr.time, !tr.level});
  }
  return out;
}

EdgeStream EdgeStream::xor_with(const EdgeStream& other) const {
  EdgeStream out(initial_ != other.initial_);
  bool a = initial_;
  bool b = other.initial_;
  std::size_t i = 0;
  std::size_t j = 0;
  bool cur = out.initial_;
  double last_time = -1e300;
  while (i < transitions_.size() || j < other.transitions_.size()) {
    const bool take_a =
        j >= other.transitions_.size() ||
        (i < transitions_.size() &&
         transitions_[i].time <= other.transitions_[j].time);
    Picoseconds t{};
    if (take_a) {
      a = transitions_[i].level;
      t = transitions_[i].time;
      ++i;
      // Coincident edges on both inputs cancel in the XOR output.
      while (j < other.transitions_.size() &&
             other.transitions_[j].time == t) {
        b = other.transitions_[j].level;
        ++j;
      }
    } else {
      b = other.transitions_[j].level;
      t = other.transitions_[j].time;
      ++j;
    }
    const bool level = a != b;
    if (level != cur) {
      const double tt = std::max(t.ps(), last_time + kMinSpacingPs);
      out.transitions_.push_back({Picoseconds{tt}, level});
      last_time = tt;
      cur = level;
    }
  }
  return out;
}

BitVector EdgeStream::to_bits(std::size_t n_bits, Picoseconds ui,
                              Picoseconds t0) const {
  BitVector out(n_bits);
  for (std::size_t k = 0; k < n_bits; ++k) {
    const Picoseconds center{t0.ps() + (static_cast<double>(k) + 0.5) * ui.ps()};
    out.set(k, level_at(center));
  }
  return out;
}

std::vector<Transition> EdgeStream::window(Picoseconds t_begin,
                                           Picoseconds t_end) const {
  std::vector<Transition> out;
  for (const auto& tr : transitions_) {
    if (tr.time >= t_begin && tr.time < t_end) {
      out.push_back(tr);
    }
  }
  return out;
}

bool EdgeStream::well_formed() const {
  bool level = initial_;
  Picoseconds last{-1e300};
  for (const auto& tr : transitions_) {
    if (tr.time <= last || tr.level == level) {
      return false;
    }
    last = tr.time;
    level = tr.level;
  }
  return true;
}

}  // namespace mgt::sig
