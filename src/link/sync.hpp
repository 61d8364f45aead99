// Receiver frame-synchronization state machine.
//
// A source-synchronous receiver that has drifted off the slot boundary does
// not see "slightly wrong" frames — it sees garbage (CRC failures, frame-bit
// violations). The monitor turns that observation stream into an explicit
// lock state, mirroring receiver start-up against the Fig 4 guard/dead
// pattern:
//
//   LOCKED  --bad frame-->  SUSPECT  --more bad-->  HUNTING
//     ^                        |                     ^   |
//     |<------good frame-------+      bad frame      |   | clean guard/dead
//     |                         (false lock)         |   v  observations
//     +<------------- good frame ------------------ RELOCK
//
// While HUNTING the receiver discards everything and watches only for the
// guard/dead-time pattern; after `kRelockGuards` consecutive clean guard
// observations it enters RELOCK, a probational lock: capture re-engages,
// the first good frame confirms LOCKED, but a single bad frame means the
// lock was false and the receiver resumes hunting. The machine is pure
// state (no RNG, no clocks), so it is deterministic by construction.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/error.hpp"

namespace mgt::link {

enum class SyncState {
  kLocked,   // frames are being captured and checked normally
  kSuspect,  // recent integrity failure(s); still capturing
  kHunting,  // lock lost; discarding frames, watching for guard pattern
  kRelock,   // guard pattern reacquired; probational capture
};

[[nodiscard]] std::string_view to_string(SyncState state);

class SyncMonitor {
public:
  struct Config {
    /// Consecutive integrity failures (CRC or frame-bit) that demote
    /// SUSPECT to HUNTING. Must be >= 2: one failure is only suspicious.
    std::size_t hunt_after = 3;
  };

  /// Consecutive clean guard/dead observations HUNTING needs to RELOCK.
  static constexpr std::size_t kRelockGuards = 2;

  SyncMonitor() : SyncMonitor(Config{}) {}
  explicit SyncMonitor(Config config) : config_(config) {
    MGT_CHECK(config_.hunt_after >= 2,
              "hunt_after must be >= 2 (one bad frame is SUSPECT, not lost)");
  }

  [[nodiscard]] SyncState state() const { return state_; }
  /// True when the receiver captures frames (every state except HUNTING).
  [[nodiscard]] bool engaged() const { return state_ != SyncState::kHunting; }

  /// A frame passed every integrity check.
  void observe_good_frame();
  /// A frame failed CRC or violated the frame-bit pattern.
  void observe_bad_frame();
  /// One guard/dead-time window observed while hunting; `clean` is true
  /// when the pattern matched (no light where the slot must be dark).
  void observe_guard(bool clean);

  /// Lifetime counters.
  [[nodiscard]] std::uint64_t sync_losses() const { return sync_losses_; }
  [[nodiscard]] std::uint64_t relocks() const { return relocks_; }

private:
  Config config_;
  SyncState state_ = SyncState::kLocked;
  std::size_t consecutive_bad_ = 0;
  std::size_t consecutive_clean_guards_ = 0;
  std::uint64_t sync_losses_ = 0;
  std::uint64_t relocks_ = 0;
};

}  // namespace mgt::link
