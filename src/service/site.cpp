#include "service/site.hpp"

#include <string>

#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mgt::service {

SiteFleet::SiteFleet(Config config, std::uint64_t seed)
    : config_(std::move(config)),
      seed_(seed),
      faults_(config_.faults.component("site")),
      probe_systems_(config_.sites) {
  MGT_CHECK(config_.sites > 0, "fleet needs at least one site");
  MGT_CHECK(config_.slow_multiplier >= 1,
            "slow multiplier below 1 would speed faulted sites up");
}

SiteFleet::~SiteFleet() = default;

bool SiteFleet::accepts(std::size_t site, std::uint64_t tick) const {
  if (!faults_.any()) {
    return true;  // empty plan: no branch, no RNG draw
  }
  const double severity =
      faults_.severity(fault::FaultKind::kSpuriousBusy, tick, site);
  if (severity <= 0.0) {
    return true;
  }
  // Keyed on (plan seed, "site", site, tick): reproducible at any thread
  // count and independent of how many other sites were asked this tick.
  Rng draw = faults_.rng(util::mix_seed(tick, site));
  return !draw.chance(severity);
}

std::uint64_t SiteFleet::chunk_cost(std::size_t site, std::uint64_t tick,
                                    std::uint64_t base_cost) const {
  MGT_CHECK(base_cost > 0, "chunk cost must be positive");
  if (!faults_.any()) {
    return base_cost;
  }
  const double severity =
      faults_.severity(fault::FaultKind::kSiteSlow, tick, site);
  if (severity <= 0.0) {
    return base_cost;
  }
  // severity 0..1 interpolates the multiplier 1..slow_multiplier, rounding
  // up so any active slow fault costs at least one extra tick of patience.
  const double extra =
      severity * static_cast<double>(config_.slow_multiplier - 1);
  const std::uint64_t multiplier =
      1 + static_cast<std::uint64_t>(extra + 0.999999);
  return base_cost * multiplier;
}

bool SiteFleet::hung(std::size_t site, std::uint64_t tick) const {
  if (!faults_.any()) {
    return false;
  }
  return faults_.active(fault::FaultKind::kSiteHang, tick, site);
}

fault::ComponentHealth SiteFleet::site_health(std::size_t site,
                                              std::uint64_t tick) const {
  const std::string name = "site" + std::to_string(site);
  if (hung(site, tick)) {
    return {name, fault::HealthStatus::kFailed, "hung (no progress)"};
  }
  if (faults_.any() &&
      faults_.severity(fault::FaultKind::kSpuriousBusy, tick, site) >= 1.0) {
    return {name, fault::HealthStatus::kFailed, "refusing all work"};
  }
  if (faults_.any() &&
      faults_.active(fault::FaultKind::kSiteSlow, tick, site)) {
    return {name, fault::HealthStatus::kDegraded, "slow (degraded)"};
  }
  return {name, fault::HealthStatus::kOk, ""};
}

fault::HealthReport SiteFleet::probe(std::size_t site, std::uint64_t tick) {
  MGT_CHECK(site < config_.sites, "probe of a site outside the fleet");
  fault::HealthReport report;
  const fault::ComponentHealth health = site_health(site, tick);
  report.add(health.component, health.status, health.detail);
  if (config_.deep_probe) {
    // Lazily build the site's loopback system; its seed is namespaced by
    // site index so probe draws never perturb another site's stream.
    auto& sys = probe_systems_[site];
    if (sys == nullptr) {
      sys = std::make_unique<core::TestSystem>(
          core::presets::minitester(), util::mix_seed(seed_, site));
    }
    report.merge(sys->self_test(), "sys.");
  }
  return report;
}

fault::HealthReport SiteFleet::self_test(std::uint64_t tick) const {
  fault::HealthReport report;
  for (std::size_t site = 0; site < config_.sites; ++site) {
    const fault::ComponentHealth health = site_health(site, tick);
    report.add(health.component, health.status, health.detail);
  }
  return report;
}

std::uint64_t SiteFleet::chunk_digest(std::uint64_t chunk_seed,
                                      std::uint64_t iterations) {
  // splitmix64 rounds: cheap, portable, and a pure function of the inputs.
  std::uint64_t x = chunk_seed;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    acc ^= splitmix64(x);
  }
  return acc;
}

}  // namespace mgt::service
