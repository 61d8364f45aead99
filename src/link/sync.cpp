#include "link/sync.hpp"

namespace mgt::link {

std::string_view to_string(SyncState state) {
  switch (state) {
    case SyncState::kLocked:
      return "locked";
    case SyncState::kSuspect:
      return "suspect";
    case SyncState::kHunting:
      return "hunting";
    case SyncState::kRelock:
      return "relock";
  }
  return "unknown";
}

void SyncMonitor::observe_good_frame() {
  MGT_CHECK(engaged(),
            "a hunting receiver cannot capture frames; observe_guard first");
  state_ = SyncState::kLocked;
  consecutive_bad_ = 0;
}

void SyncMonitor::observe_bad_frame() {
  MGT_CHECK(engaged(),
            "a hunting receiver cannot capture frames; observe_guard first");
  if (state_ == SyncState::kRelock) {
    // First slot after relock failed again: the lock was false.
    state_ = SyncState::kHunting;
    ++sync_losses_;
    consecutive_clean_guards_ = 0;
    return;
  }
  ++consecutive_bad_;
  if (consecutive_bad_ >= config_.hunt_after) {
    state_ = SyncState::kHunting;
    ++sync_losses_;
    consecutive_bad_ = 0;
    consecutive_clean_guards_ = 0;
  } else {
    state_ = SyncState::kSuspect;
  }
}

void SyncMonitor::observe_guard(bool clean) {
  MGT_CHECK(state_ == SyncState::kHunting,
            "guard hunting only happens after sync loss");
  if (!clean) {
    consecutive_clean_guards_ = 0;
    return;
  }
  if (++consecutive_clean_guards_ >= kRelockGuards) {
    state_ = SyncState::kRelock;
    ++relocks_;
    consecutive_clean_guards_ = 0;
  }
}

}  // namespace mgt::link
