// Edge-domain signal representation.
//
// A digital signal is a strictly time-ordered list of level transitions plus
// the level before the first transition. All PECL components in the library
// are transforms over this representation; it is exact (no sampling grid)
// and cheap enough for millions of unit intervals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/bitvec.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// One level change. `level` is the logic value AFTER the transition.
struct Transition {
  Picoseconds time;
  bool level;
};

/// Minimum spacing between two transitions of a stream that a stage has
/// displaced. Physically a pulse squeezed below this survives as a sliver;
/// keeping a floor preserves the alternating-level invariant without
/// changing any statistics that matter.
inline constexpr Picoseconds kMinEdgeSpacing{1e-3};

/// Per-edge timing perturbation callback: given the edge's serial bit index
/// and nominal time, returns the time offset to apply (jitter, skew, ...).
using EdgeOffsetFn =
    std::function<Picoseconds(std::size_t bit_index, Picoseconds nominal)>;

/// A two-level signal as an ordered transition list.
class EdgeStream {
public:
  EdgeStream() = default;
  explicit EdgeStream(bool initial_level) : initial_(initial_level) {}

  /// Builds an NRZ signal from a bit sequence: bit k occupies
  /// [t0 + k*ui, t0 + (k+1)*ui). A transition is emitted at each boundary
  /// where the bit value changes; `offset` (optional) perturbs each
  /// transition time. Transition times are kept strictly monotonic by
  /// the kMinEdgeSpacing clamp (models pulse narrowing when jitter exceeds
  /// spacing).
  static EdgeStream from_bits(const BitVector& bits, Picoseconds ui,
                              Picoseconds t0 = Picoseconds{0},
                              const EdgeOffsetFn& offset = nullptr);

  /// Ideal square-wave clock: first rising edge at t0, period `period`,
  /// n_cycles full cycles, optional per-edge offset (edge index counts every
  /// transition, rising and falling).
  static EdgeStream clock(Picoseconds period, std::size_t n_cycles,
                          Picoseconds t0 = Picoseconds{0},
                          const EdgeOffsetFn& offset = nullptr);

  [[nodiscard]] bool initial_level() const { return initial_; }
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }
  [[nodiscard]] std::size_t size() const { return transitions_.size(); }
  [[nodiscard]] bool empty() const { return transitions_.empty(); }

  /// Appends a transition; must strictly follow the previous one in time and
  /// actually change the level.
  void push(Picoseconds t, bool level);

  /// Logic level at time t (level of the last transition at or before t).
  [[nodiscard]] bool level_at(Picoseconds t) const;

  /// Uniformly shifts all transition times by dt.
  [[nodiscard]] EdgeStream shifted(Picoseconds dt) const;

  /// Moves every transition, in order, to `time_of(time)`: a callable from
  /// Picoseconds to Picoseconds, called once per transition (it may draw
  /// jitter). A transition that would land less than kMinEdgeSpacing after
  /// its predecessor is clamped to exactly that spacing, so the result stays
  /// strictly increasing and alternating however far the edges move.
  template <typename TimeOf>
  [[nodiscard]] EdgeStream retimed(TimeOf&& time_of) const {
    EdgeStream out(initial_);
    out.transitions_.reserve(transitions_.size());
    for (const Transition& tr : transitions_) {
      out.push_spaced(time_of(tr.time), tr.level);
    }
    return out;
  }

  /// Samples the stream at the center of each of n_bits unit intervals
  /// (t0 + (k+0.5)*ui) and returns the recovered bit sequence.
  [[nodiscard]] BitVector to_bits(std::size_t n_bits, Picoseconds ui,
                                  Picoseconds t0 = Picoseconds{0}) const;

  /// Times of transitions restricted to [t_begin, t_end).
  [[nodiscard]] std::vector<Transition> window(Picoseconds t_begin,
                                               Picoseconds t_end) const;

  /// True if transition times are strictly increasing and levels alternate.
  [[nodiscard]] bool well_formed() const;

private:
  /// push() at `t`, or at kMinEdgeSpacing after the previous transition
  /// when `t` comes sooner.
  void push_spaced(Picoseconds t, bool level) {
    if (!transitions_.empty()) {
      t = std::max(t, transitions_.back().time + kMinEdgeSpacing);
    }
    push(t, level);
  }

  bool initial_ = false;
  std::vector<Transition> transitions_;
};

}  // namespace mgt::sig
