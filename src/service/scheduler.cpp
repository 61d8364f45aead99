#include "service/scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mgt::service {

namespace {

/// FNV-1a over the tenant name: the stable identity that namespaces a
/// tenant's seeds away from every other tenant's.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

void count_tenant(const std::string& tenant, std::string_view what) {
  obs::add_counter("service.tenant." + tenant + "." + std::string(what));
}

}  // namespace

Scheduler::Scheduler(Config config, std::uint64_t seed)
    : config_(config), seed_(seed), fleet_(config.fleet, seed) {
  MGT_CHECK(config_.tenant_queue_limit > 0, "tenant queue limit must be > 0");
  MGT_CHECK(config_.global_queue_limit >= config_.tenant_queue_limit,
            "global limit below the per-tenant limit");
  MGT_CHECK(config_.backoff_base_ticks > 0, "backoff base must be positive");
  MGT_CHECK(config_.backoff_cap_ticks >= config_.backoff_base_ticks,
            "backoff cap below the base");
  MGT_CHECK(config_.work_iterations > 0, "chunks must perform some work");
  sites_.resize(config_.fleet.sites);
  for (auto& site : sites_) {
    site.breaker = CircuitBreaker(config_.breaker);
  }
}

// ---------------------------------------------------------------- admission

Admission Scheduler::submit(const TestPlan& plan) {
  ++stats_.submitted;
  if (plan.tenant.empty() || plan.shards == 0 || plan.chunks_per_shard == 0 ||
      plan.chunk_cost_ticks == 0) {
    ++stats_.rejected_invalid;
    obs::add_counter("service.rejected.invalid");
    return {false, RejectReason::kInvalidPlan, 0};
  }
  if (stats_.in_flight() >= config_.global_queue_limit) {
    ++stats_.rejected_global_shed;
    obs::add_counter("service.rejected.global_shed");
    return {false, RejectReason::kGlobalShed, 0};
  }
  auto [it, inserted] = tenants_.try_emplace(plan.tenant);
  TenantState& tenant = it->second;
  if (inserted) {
    tenant_order_.push_back(plan.tenant);
  }
  if (tenant.unfinished >= config_.tenant_queue_limit) {
    ++stats_.rejected_tenant_queue_full;
    obs::add_counter("service.rejected.tenant_queue_full");
    count_tenant(plan.tenant, "rejected");
    return {false, RejectReason::kTenantQueueFull, 0};
  }

  const std::uint64_t id = next_plan_id_++;
  PlanRuntime runtime;
  runtime.plan = plan;
  runtime.tenant_seed = util::mix_seed(seed_, fnv1a(plan.tenant));
  runtime.admitted_tick = tick_;
  runtime.deadline_tick =
      plan.deadline_ticks == 0 ? 0 : tick_ + plan.deadline_ticks;
  runtime.shards.resize(plan.shards);
  plans_.push_back(std::move(runtime));

  ++tenant.unfinished;
  for (std::size_t shard = 0; shard < plan.shards; ++shard) {
    tenant.ready.push_back({id, shard});
  }
  if (plan.deadline_ticks != 0) {
    deadlines_.emplace(plans_.back().deadline_tick, id);
  }
  ++stats_.admitted;
  obs::add_counter("service.admitted");
  count_tenant(plan.tenant, "admitted");
  return {true, RejectReason::kNone, id};
}

// ------------------------------------------------------------ virtual time

void Scheduler::step() {
  ++tick_;
  advance_sites();
  expire_deadlines();
  release_deferred();
  assign_sites();
}

void Scheduler::run_for(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    step();
  }
}

bool Scheduler::drain(std::uint64_t max_ticks) {
  const std::uint64_t begin = tick_;
  for (std::uint64_t i = 0; i < max_ticks && stats_.in_flight() > 0; ++i) {
    step();
  }
  const bool drained = stats_.in_flight() == 0;
  if (!drained) {
    force_finalize_all();
  }
  obs::record_span("service.drain", begin, tick_);
  obs::set_gauge("service.tick", static_cast<double>(tick_));
  return drained;
}

// -------------------------------------------------------------- site phase

void Scheduler::advance_sites() {
  // Phase 1 (serial): progress/hang bookkeeping, collecting the executions
  // that complete this tick in site-index order.
  struct Completion {
    std::size_t site;
    std::uint64_t seed;
    std::uint64_t digest = 0;
  };
  std::vector<Completion> completions;
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteRuntime& site = sites_[s];
    if (!site.busy) {
      continue;
    }
    if (fleet_.hung(s, tick_)) {
      ++site.hang_ticks;
      if (site.hang_ticks > config_.hang_budget_ticks) {
        // Hang detected: abort the execution, blame the site, retry the
        // shard elsewhere.
        const ShardRef ref = site.work;
        site.busy = false;
        site.hang_ticks = 0;
        --runtime(ref.plan_id).shards_running;
        obs::add_counter("service.hang_aborts");
        fail_execution(s, ref, /*count_breaker=*/true);
      }
      continue;  // no progress while hung
    }
    site.hang_ticks = 0;
    --site.remaining;
    if (site.remaining == 0) {
      const PlanRuntime& p = runtime(site.work.plan_id);
      const ShardRuntime& shard = p.shards[site.work.shard];
      completions.push_back(
          {s, chunk_seed(p, site.work.shard, shard.next_chunk), 0});
    }
  }

  // Phase 2 (parallel): the simulated measurements. Each task writes only
  // its own slot; results are folded back in site-index order below, so
  // totals are byte-identical at every MGT_THREADS setting.
  util::parallel_for(completions.size(), [&](std::size_t i) {
    completions[i].digest =
        SiteFleet::chunk_digest(completions[i].seed, config_.work_iterations);
  });

  // Phase 3 (serial, site order): chunk-boundary bookkeeping.
  for (const Completion& done : completions) {
    complete_chunk(done.site, done.digest);
  }
}

void Scheduler::expire_deadlines() {
  while (!deadlines_.empty() && deadlines_.begin()->first < tick_) {
    const std::uint64_t plan_id = deadlines_.begin()->second;
    deadlines_.erase(deadlines_.begin());
    PlanRuntime& p = runtime(plan_id);
    if (!p.finished && !p.cancelled) {
      cancel_plan(plan_id);
    }
  }
}

void Scheduler::release_deferred() {
  while (!deferred_.empty() && deferred_.begin()->first <= tick_) {
    const ShardRef ref = deferred_.begin()->second;
    deferred_.erase(deferred_.begin());
    PlanRuntime& p = runtime(ref.plan_id);
    if (past_deadline(p) && !p.cancelled) {
      cancel_plan(ref.plan_id);
    }
    if (p.cancelled) {
      abandon_shard(ref);
      continue;
    }
    tenants_.find(p.plan.tenant)->second.ready.push_back(ref);
  }
}

void Scheduler::assign_sites() {
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteRuntime& site = sites_[s];
    if (site.busy) {
      continue;
    }
    const BreakerState state = site.breaker.state(tick_);
    if (state == BreakerState::kOpen) {
      continue;  // quarantined
    }
    if (state == BreakerState::kHalfOpen) {
      run_probe(s);  // the probe consumes this site's slot for the tick
      continue;
    }
    // CLOSED: hand out work until this site is busy or nothing is ready.
    ShardRef ref;
    while (!site.busy && pop_ready(ref)) {
      if (!fleet_.accepts(s, tick_)) {
        // Spurious busy: the refusal is keyed on (site, tick), so this
        // site refuses everything until the next tick — re-queue the
        // shard and move on to the next site.
        obs::add_counter("service.spurious_busy");
        fail_execution(s, ref, /*count_breaker=*/true);
        break;
      }
      PlanRuntime& p = runtime(ref.plan_id);
      site.busy = true;
      site.work = ref;
      site.hang_ticks = 0;
      site.remaining = fleet_.chunk_cost(s, tick_, p.plan.chunk_cost_ticks);
      ++p.shards_running;
    }
  }
}

void Scheduler::run_probe(std::size_t site) {
  ++stats_.probes;
  obs::add_counter("service.probes");
  const fault::HealthReport report = fleet_.probe(site, tick_);
  CircuitBreaker& breaker = sites_[site].breaker;
  if (report.worst() != fault::HealthStatus::kFailed) {
    breaker.record_success(tick_);
    ++stats_.breaker_reinstated;
    obs::add_counter("service.breaker.reinstated");
  } else {
    const std::uint64_t before = breaker.trips();
    breaker.record_failure(tick_);
    stats_.breaker_trips += breaker.trips() - before;
    obs::add_counter("service.breaker.trips",
                     breaker.trips() - before);
  }
}

// --------------------------------------------------------- chunk boundary

void Scheduler::complete_chunk(std::size_t s, std::uint64_t digest) {
  SiteRuntime& site = sites_[s];
  const ShardRef ref = site.work;
  site.busy = false;
  PlanRuntime& p = runtime(ref.plan_id);
  ShardRuntime& shard = p.shards[ref.shard];
  --p.shards_running;

  // Fold the completed chunk into the shard (chunk order within a shard is
  // sequential, so the fold order is fixed).
  shard.digest = util::mix_seed(shard.digest, digest);
  ++shard.next_chunk;
  ++p.chunks_completed;
  ++stats_.chunks_completed;
  obs::add_counter("service.chunks.completed");
  site.breaker.record_success(tick_);

  const bool shard_done = shard.next_chunk >= p.plan.chunks_per_shard;

  // Cooperative cancellation: the chunk boundary is where deadlines act.
  if (past_deadline(p) && !p.cancelled) {
    cancel_plan(ref.plan_id);
  }
  if (p.cancelled) {
    if (shard_done) {
      finish_shard(ref);  // the work is already paid for; keep it
    } else {
      abandon_shard(ref);
    }
    return;
  }
  if (shard_done) {
    finish_shard(ref);
    return;
  }
  // Keep the shard resident: start its next chunk on the same site unless
  // the site now refuses (spurious busy applies at every chunk boundary).
  if (!fleet_.accepts(s, tick_)) {
    obs::add_counter("service.spurious_busy");
    fail_execution(s, ref, /*count_breaker=*/true);
    return;
  }
  site.busy = true;
  site.work = ref;
  site.hang_ticks = 0;
  site.remaining = fleet_.chunk_cost(s, tick_, p.plan.chunk_cost_ticks);
  ++p.shards_running;
}

void Scheduler::fail_execution(std::size_t s, ShardRef ref,
                               bool count_breaker) {
  if (count_breaker) {
    CircuitBreaker& breaker = sites_[s].breaker;
    const std::uint64_t before = breaker.trips();
    breaker.record_failure(tick_);
    stats_.breaker_trips += breaker.trips() - before;
    if (breaker.trips() != before) {
      obs::add_counter("service.breaker.trips", breaker.trips() - before);
    }
  }
  PlanRuntime& p = runtime(ref.plan_id);
  ShardRuntime& shard = p.shards[ref.shard];
  ++shard.attempts;
  if (p.cancelled || shard.attempts > config_.max_shard_retries) {
    abandon_shard(ref);
    return;
  }
  // Capped exponential backoff; the shard lands on whichever site is
  // healthy when it becomes ready again.
  const std::size_t shift = shard.attempts - 1;
  std::uint64_t backoff = config_.backoff_cap_ticks;
  if (shift < 64) {
    backoff = std::min(config_.backoff_cap_ticks,
                       config_.backoff_base_ticks << shift);
  }
  ++p.chunks_retried;
  ++stats_.chunks_retried;
  obs::add_counter("service.chunks.retried");
  defer_shard(ref, tick_ + backoff);
}

void Scheduler::defer_shard(ShardRef ref, std::uint64_t not_before) {
  deferred_.emplace(not_before, ref);
}

void Scheduler::abandon_shard(ShardRef ref) {
  PlanRuntime& p = runtime(ref.plan_id);
  ShardRuntime& shard = p.shards[ref.shard];
  MGT_CHECK(!shard.done && !shard.abandoned,
            "shard terminated twice; accounting would double-count");
  shard.abandoned = true;
  ++p.shards_abandoned;
  maybe_finalize(ref.plan_id);
}

void Scheduler::finish_shard(ShardRef ref) {
  PlanRuntime& p = runtime(ref.plan_id);
  ShardRuntime& shard = p.shards[ref.shard];
  MGT_CHECK(!shard.done && !shard.abandoned,
            "shard terminated twice; accounting would double-count");
  shard.done = true;
  ++p.shards_completed;
  maybe_finalize(ref.plan_id);
}

void Scheduler::cancel_plan(std::uint64_t plan_id) {
  PlanRuntime& p = runtime(plan_id);
  p.cancelled = true;
  obs::add_counter("service.deadline_cancellations");
  // Abandon queued and deferred shards now — cancellation must not depend
  // on a healthy site ever picking them up. Running shards notice at their
  // next chunk boundary (cooperative cancellation).
  auto& ready = tenants_.find(p.plan.tenant)->second.ready;
  std::deque<ShardRef> keep;
  for (const ShardRef& ref : ready) {
    if (ref.plan_id == plan_id) {
      abandon_shard(ref);
    } else {
      keep.push_back(ref);
    }
  }
  ready.swap(keep);
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    if (it->second.plan_id == plan_id) {
      const ShardRef ref = it->second;
      it = deferred_.erase(it);
      abandon_shard(ref);
    } else {
      ++it;
    }
  }
}

void Scheduler::maybe_finalize(std::uint64_t plan_id) {
  PlanRuntime& p = runtime(plan_id);
  if (!p.finished &&
      p.shards_completed + p.shards_abandoned == p.plan.shards) {
    finalize(plan_id);
  }
}

void Scheduler::finalize(std::uint64_t plan_id) {
  PlanRuntime& p = runtime(plan_id);
  MGT_CHECK(!p.finished, "plan finalized twice");
  p.finished = true;

  PlanResult& r = p.result;
  r.plan_id = plan_id;
  r.kind = p.plan.kind;
  r.tenant = p.plan.tenant;
  r.shards = p.plan.shards;
  r.shards_completed = p.shards_completed;
  r.shards_abandoned = p.shards_abandoned;
  r.chunks_completed = p.chunks_completed;
  r.chunks_retried = p.chunks_retried;
  const std::uint64_t total_chunks =
      static_cast<std::uint64_t>(p.plan.shards) * p.plan.chunks_per_shard;
  r.chunks_abandoned = total_chunks - p.chunks_completed;
  r.admitted_tick = p.admitted_tick;
  r.finished_tick = tick_;
  r.deadline_exceeded = p.cancelled;
  util::Fnv64 fold;
  for (const ShardRuntime& shard : p.shards) {
    if (shard.done) {
      fold.mix_u64(shard.digest);
    }
  }
  // An empty fold would be the FNV offset basis; report 0 so "no completed
  // shards" is distinguishable without knowing the hash's internals.
  r.digest = p.shards_completed == 0 ? 0 : fold.digest();

  if (p.shards_completed == p.plan.shards) {
    r.outcome = PlanOutcome::kCompleted;
    ++stats_.completed;
    obs::add_counter("service.completed");
  } else if (p.shards_completed > 0) {
    r.outcome = PlanOutcome::kPartial;
    ++stats_.partial;
    obs::add_counter("service.partial");
  } else {
    r.outcome = PlanOutcome::kAbandoned;
    ++stats_.abandoned;
    obs::add_counter("service.abandoned");
  }
  count_tenant(p.plan.tenant, std::string(to_string(r.outcome)));
  // Admission-to-completion latency in virtual ticks: deterministic, so it
  // may land in the metrics histogram (p99 reported by the bench).
  obs::observe("service.latency_ticks", 0.0, 65536.0, 128,
               static_cast<double>(tick_ - p.admitted_tick));
  --tenants_.find(p.plan.tenant)->second.unfinished;
}

void Scheduler::force_finalize_all() {
  // Budget exhausted (drain gave up): abort running executions without
  // blaming sites, then account every unfinished shard as abandoned. The
  // termination identity holds exactly even on this path.
  for (auto& site : sites_) {
    if (site.busy) {
      const ShardRef ref = site.work;
      site.busy = false;
      site.hang_ticks = 0;
      --runtime(ref.plan_id).shards_running;
    }
  }
  deferred_.clear();
  for (auto& [name, tenant] : tenants_) {
    tenant.ready.clear();
  }
  for (std::uint64_t id = 1; id < next_plan_id_; ++id) {
    PlanRuntime& p = runtime(id);
    if (p.finished) {
      continue;
    }
    obs::add_counter("service.force_finalized");
    for (std::size_t shard = 0; shard < p.shards.size(); ++shard) {
      if (!p.shards[shard].done && !p.shards[shard].abandoned) {
        abandon_shard({id, shard});
      }
    }
  }
}

// --------------------------------------------------------------- fairness

bool Scheduler::pop_ready(ShardRef& out) {
  const std::size_t n = tenant_order_.size();
  if (n == 0) {
    return false;
  }
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t at = (tenant_cursor_ + probe) % n;
    TenantState& tenant = tenants_.find(tenant_order_[at])->second;
    while (!tenant.ready.empty()) {
      const ShardRef ref = tenant.ready.front();
      tenant.ready.pop_front();
      PlanRuntime& p = runtime(ref.plan_id);
      if (past_deadline(p) && !p.cancelled) {
        cancel_plan(ref.plan_id);
      }
      if (p.cancelled) {
        abandon_shard(ref);
        continue;  // keep scanning this tenant
      }
      // Advance the cursor past this tenant so the next pick starts at the
      // following one: round-robin fairness in submission order.
      tenant_cursor_ = (at + 1) % n;
      out = ref;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- inspection

std::uint64_t Scheduler::chunk_seed(const PlanRuntime& p, std::size_t shard,
                                    std::size_t chunk) const {
  util::Fnv64 f;
  f.mix_u64(p.tenant_seed);
  f.mix_u64(p.plan.seed_salt);
  f.mix_u64(static_cast<std::uint64_t>(p.plan.kind));
  f.mix_u64(shard);
  f.mix_u64(chunk);
  return f.digest();
}

const PlanResult* Scheduler::result(std::uint64_t plan_id) const {
  if (plan_id == 0 || plan_id >= next_plan_id_) {
    return nullptr;
  }
  const PlanRuntime& p = plans_[plan_id - 1];
  return p.finished ? &p.result : nullptr;
}

std::vector<PlanResult> Scheduler::finished_results() const {
  std::vector<PlanResult> out;
  for (const PlanRuntime& p : plans_) {
    if (p.finished) {
      out.push_back(p.result);
    }
  }
  return out;
}

BreakerState Scheduler::breaker_state(std::size_t site) const {
  MGT_CHECK(site < sites_.size(), "breaker query outside the fleet");
  return sites_[site].breaker.state(tick_);
}

const CircuitBreaker& Scheduler::breaker(std::size_t site) const {
  MGT_CHECK(site < sites_.size(), "breaker query outside the fleet");
  return sites_[site].breaker;
}

fault::HealthReport Scheduler::self_test() {
  fault::HealthReport report;
  std::size_t open = 0;
  for (const auto& site : sites_) {
    if (site.breaker.state(tick_) != BreakerState::kClosed) {
      ++open;
    }
  }
  std::ostringstream detail;
  detail << stats_.in_flight() << " in flight, " << open << "/"
         << sites_.size() << " breakers open, " << stats_.rejected()
         << " rejected (" << stats_.rejected_global_shed << " shed)";
  fault::HealthStatus status = fault::HealthStatus::kOk;
  if (open == sites_.size()) {
    status = fault::HealthStatus::kFailed;  // nothing can run at all
  } else if (open > 0 || stats_.rejected_global_shed > 0) {
    status = fault::HealthStatus::kDegraded;
  }
  report.add("scheduler", status, detail.str());
  report.merge(fleet_.self_test(tick_), "fleet.");
  return report;
}

std::string Scheduler::replay_fingerprint() const {
  std::ostringstream os;
  os << "service-replay v1\n";
  for (const PlanRuntime& p : plans_) {
    if (!p.finished) {
      continue;
    }
    const PlanResult& r = p.result;
    os << r.plan_id << " " << r.tenant << " " << to_string(r.kind) << " "
       << to_string(r.outcome) << " shards=" << r.shards_completed << "/"
       << r.shards_abandoned << " chunks=" << r.chunks_completed << "/"
       << r.chunks_retried << "/" << r.chunks_abandoned
       << " ticks=" << r.admitted_tick << ".." << r.finished_tick
       << (r.deadline_exceeded ? " deadline" : "") << " digest=" << std::hex
       << r.digest << std::dec << "\n";
  }
  os << "stats submitted=" << stats_.submitted << " admitted=" << stats_.admitted
     << " rejected=" << stats_.rejected_invalid << "/"
     << stats_.rejected_tenant_queue_full << "/" << stats_.rejected_global_shed
     << " outcomes=" << stats_.completed << "/" << stats_.partial << "/"
     << stats_.abandoned << " chunks=" << stats_.chunks_completed << "/"
     << stats_.chunks_retried << "/" << stats_.chunks_abandoned
     << " breaker=" << stats_.breaker_trips << "/" << stats_.breaker_reinstated
     << " probes=" << stats_.probes << " tick=" << tick_ << "\n";
  return os.str();
}

}  // namespace mgt::service
