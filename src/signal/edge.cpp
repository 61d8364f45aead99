#include "signal/edge.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mgt::sig {

EdgeStream EdgeStream::from_bits(const BitVector& bits, Picoseconds ui,
                                 Picoseconds t0, const EdgeOffsetFn& offset) {
  MGT_CHECK(ui.ps() > 0.0);
  EdgeStream out(bits.empty() ? false : bits.get(0));
  for (std::size_t k = 1; k < bits.size(); ++k) {
    if (bits.get(k) == bits.get(k - 1)) {
      continue;
    }
    const Picoseconds nominal{t0.ps() + static_cast<double>(k) * ui.ps()};
    out.push_spaced(offset ? nominal + offset(k, nominal) : nominal,
                    bits.get(k));
  }
  return out;
}

EdgeStream EdgeStream::clock(Picoseconds period, std::size_t n_cycles,
                             Picoseconds t0, const EdgeOffsetFn& offset) {
  MGT_CHECK(period.ps() > 0.0);
  EdgeStream out(false);
  const double half = period.ps() / 2.0;
  for (std::size_t k = 0; k < 2 * n_cycles; ++k) {
    const Picoseconds nominal{t0.ps() + static_cast<double>(k) * half};
    out.push_spaced(offset ? nominal + offset(k, nominal) : nominal,
                    k % 2 == 0);
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
