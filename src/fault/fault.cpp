#include "fault/fault.hpp"

#include <algorithm>

#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mgt::fault {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMuxStuckAt:
      return "mux-stuck-at";
    case FaultKind::kMuxDropout:
      return "mux-dropout";
    case FaultKind::kDelayDrift:
      return "delay-drift";
    case FaultKind::kClockGlitch:
      return "clock-glitch";
    case FaultKind::kLossOfSignal:
      return "loss-of-signal";
    case FaultKind::kNodeFailure:
      return "node-failure";
    case FaultKind::kDeadPin:
      return "dead-pin";
    case FaultKind::kProbeContactLoss:
      return "probe-contact-loss";
    case FaultKind::kFrameCorruption:
      return "frame-corruption";
    case FaultKind::kSyncLoss:
      return "sync-loss";
    case FaultKind::kSiteHang:
      return "site-hang";
    case FaultKind::kSiteSlow:
      return "site-slow";
    case FaultKind::kSpuriousBusy:
      return "spurious-busy";
  }
  return "unknown";
}

bool ComponentFaults::any(FaultKind kind) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind) {
      return true;
    }
  }
  return false;
}

bool ComponentFaults::active(FaultKind kind, std::uint64_t tick) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind && spec.active_at(tick)) {
      return true;
    }
  }
  return false;
}

bool ComponentFaults::active(FaultKind kind, std::uint64_t tick,
                             std::size_t index) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind && spec.applies(tick, index)) {
      return true;
    }
  }
  return false;
}

double ComponentFaults::severity(FaultKind kind, std::uint64_t tick) const {
  double worst = 0.0;
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind && spec.active_at(tick)) {
      worst = std::max(worst, spec.severity);
    }
  }
  return worst;
}

double ComponentFaults::severity(FaultKind kind, std::uint64_t tick,
                                 std::size_t index) const {
  double worst = 0.0;
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind && spec.applies(tick, index)) {
      worst = std::max(worst, spec.severity);
    }
  }
  return worst;
}

Rng ComponentFaults::rng(std::uint64_t salt) const {
  return util::task_rng(component_seed_, salt);
}

FaultPlan& FaultPlan::schedule(FaultSpec spec) {
  MGT_CHECK(!spec.component.empty(), "fault spec needs a component name");
  MGT_CHECK(spec.severity >= 0.0 && spec.severity <= 1.0,
            "fault severity must be in [0, 1]");
  specs_.push_back(std::move(spec));
  return *this;
}

ComponentFaults FaultPlan::component(std::string_view name) const {
  std::vector<FaultSpec> matching;
  for (const FaultSpec& spec : specs_) {
    if (spec.component == name) {
      matching.push_back(spec);
    }
  }
  return ComponentFaults(util::mix_seed(seed_, util::fnv1a(name)),
                         std::move(matching));
}

}  // namespace mgt::fault
