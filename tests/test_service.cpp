// Tests for the test-as-a-service session layer (src/service).
//
// The contract pillars under test:
//   1. Exact accounting: admitted == completed + partial + abandoned, and
//      per plan shards == shards_completed + shards_abandoned — under
//      deadlines, chaos plans and drain-budget exhaustion alike.
//   2. Determinism: replay fingerprints are byte-identical across
//      MGT_THREADS 0/1/8, an empty chaos plan is byte-identical to a
//      fault-free scheduler, and completed-plan digests are invariant to
//      retries and site reassignment.
//   3. Circuit breakers: CLOSED -> OPEN on consecutive failures,
//      time-driven OPEN -> HALF_OPEN, probed reinstatement, and doubling
//      capped quarantine — all in virtual ticks.
//   4. Admission control: typed rejections for invalid plans, full tenant
//      queues and global shed; shedding is never silent.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "service/breaker.hpp"
#include "service/plan.hpp"
#include "service/scheduler.hpp"
#include "service/site.hpp"
#include "util/parallel.hpp"

namespace mgt {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using service::BreakerState;
using service::CircuitBreaker;
using service::PlanKind;
using service::PlanOutcome;
using service::RejectReason;
using service::Scheduler;
using service::TestPlan;

// Restores the ambient thread configuration when a test body returns.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { util::clear_thread_override(); }
};

TestPlan plan(std::string tenant, std::size_t shards = 4,
              std::size_t chunks = 3, std::uint64_t cost = 2) {
  TestPlan p;
  p.kind = PlanKind::kEyeScan;
  p.tenant = std::move(tenant);
  p.shards = shards;
  p.chunks_per_shard = chunks;
  p.chunk_cost_ticks = cost;
  return p;
}

FaultSpec site_fault(FaultKind kind, std::size_t site, std::uint64_t start,
                     std::uint64_t duration, double severity = 1.0) {
  FaultSpec spec;
  spec.kind = kind;
  spec.component = "site";
  spec.index = site;
  spec.start = start;
  spec.duration = duration;
  spec.severity = severity;
  return spec;
}

void expect_accounting_exact(const Scheduler& sched) {
  const service::ServiceStats& s = sched.stats();
  EXPECT_EQ(s.submitted, s.admitted + s.rejected());
  EXPECT_EQ(s.admitted, s.completed + s.partial + s.abandoned);
  for (const service::PlanResult& r : sched.finished_results()) {
    EXPECT_TRUE(r.accounting_exact()) << "plan " << r.plan_id;
  }
}

// --------------------------------------------------------------- breaker --

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  config.quarantine_ticks = 10;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  breaker.record_failure(1);
  breaker.record_failure(2);
  EXPECT_EQ(breaker.state(2), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 2u);

  // A success resets the streak: two more failures do not trip.
  breaker.record_success(3);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  breaker.record_failure(4);
  breaker.record_failure(5);
  EXPECT_EQ(breaker.state(5), BreakerState::kClosed);

  breaker.record_failure(6);  // third consecutive: trip
  EXPECT_EQ(breaker.state(6), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.reopen_tick(), 16u);
}

TEST(CircuitBreaker, QuarantineElapsesIntoHalfOpen) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.quarantine_ticks = 8;
  CircuitBreaker breaker(config);

  breaker.record_failure(100);
  EXPECT_EQ(breaker.state(100), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(107), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allows_work(107));
  EXPECT_FALSE(breaker.wants_probe(107));
  // The OPEN -> HALF_OPEN transition is time-driven, not event-driven.
  EXPECT_EQ(breaker.state(108), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.wants_probe(108));
  EXPECT_FALSE(breaker.allows_work(108));
}

TEST(CircuitBreaker, ProbeSuccessReinstatesAndResetsEscalation) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.quarantine_ticks = 4;
  config.max_quarantine_ticks = 16;
  CircuitBreaker breaker(config);

  breaker.record_failure(0);           // trip #1: quarantine 4
  EXPECT_EQ(breaker.reopen_tick(), 4u);
  breaker.record_failure(4);           // failed probe: doubled to 8
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_EQ(breaker.reopen_tick(), 12u);
  breaker.record_failure(12);          // failed probe: doubled to 16
  EXPECT_EQ(breaker.reopen_tick(), 28u);
  breaker.record_failure(28);          // capped at 16
  EXPECT_EQ(breaker.reopen_tick(), 44u);

  breaker.record_success(44);          // probe ok: reinstated
  EXPECT_EQ(breaker.state(44), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allows_work(44));

  breaker.record_failure(50);          // escalation forgotten: base window
  EXPECT_EQ(breaker.reopen_tick(), 54u);
}

TEST(CircuitBreaker, FailuresWhileOpenDoNotRetrip) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.quarantine_ticks = 100;
  CircuitBreaker breaker(config);

  breaker.record_failure(0);
  EXPECT_EQ(breaker.trips(), 1u);
  // Late verdicts for work assigned before the trip arrive while OPEN.
  breaker.record_failure(1);
  breaker.record_failure(2);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.reopen_tick(), 100u);
}

// ------------------------------------------------------------- admission --

TEST(ServiceFleet, ChunkDigestIsPinned) {
  // 256 splitmix64 rounds from seed 5, recorded while the fleet carried its
  // own copy of splitmix64.
  EXPECT_EQ(service::SiteFleet::chunk_digest(5, 256), 0x1ec50a40602e241eULL);
  EXPECT_EQ(service::SiteFleet::chunk_digest(5, 0), 0u);
}

TEST(ServiceAdmission, TypedRejectionsAndExactCounts) {
  Scheduler::Config config;
  config.fleet.sites = 2;
  config.tenant_queue_limit = 2;
  config.global_queue_limit = 3;
  Scheduler sched(config, /*seed=*/1);

  // Invalid plans: empty tenant, zero shards, zero chunks, zero cost.
  EXPECT_EQ(sched.submit(plan("")).reason, RejectReason::kInvalidPlan);
  EXPECT_EQ(sched.submit(plan("a", 0)).reason, RejectReason::kInvalidPlan);
  EXPECT_EQ(sched.submit(plan("a", 1, 0)).reason, RejectReason::kInvalidPlan);
  EXPECT_EQ(sched.submit(plan("a", 1, 1, 0)).reason,
            RejectReason::kInvalidPlan);

  const service::Admission first = sched.submit(plan("a"));
  ASSERT_TRUE(first.accepted);
  EXPECT_EQ(first.plan_id, 1u);
  ASSERT_TRUE(sched.submit(plan("a")).accepted);

  // Tenant "a" is at its bound; tenant "b" still fits under the global cap.
  EXPECT_EQ(sched.submit(plan("a")).reason, RejectReason::kTenantQueueFull);
  ASSERT_TRUE(sched.submit(plan("b")).accepted);
  // Global limit (3 unfinished) now sheds everyone — typed as kGlobalShed.
  EXPECT_EQ(sched.submit(plan("c")).reason, RejectReason::kGlobalShed);

  const service::ServiceStats& s = sched.stats();
  EXPECT_EQ(s.submitted, 9u);
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rejected_invalid, 4u);
  EXPECT_EQ(s.rejected_tenant_queue_full, 1u);
  EXPECT_EQ(s.rejected_global_shed, 1u);
  EXPECT_EQ(s.submitted, s.admitted + s.rejected());

  // Draining frees quota: the tenant can submit again.
  ASSERT_TRUE(sched.drain(10'000));
  EXPECT_TRUE(sched.submit(plan("a")).accepted);
  ASSERT_TRUE(sched.drain(10'000));
  expect_accounting_exact(sched);
}

TEST(ServiceScheduler, FaultFreePlansCompleteWithExactAccounting) {
  Scheduler::Config config;
  config.fleet.sites = 4;
  Scheduler sched(config, /*seed=*/7);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const service::Admission a =
        sched.submit(plan("tenant" + std::to_string(i % 3), 5, 3, 2));
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.plan_id);
  }
  ASSERT_TRUE(sched.drain(10'000));

  const service::ServiceStats& s = sched.stats();
  EXPECT_EQ(s.admitted, 6u);
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.partial, 0u);
  EXPECT_EQ(s.abandoned, 0u);
  EXPECT_EQ(s.chunks_completed, 6u * 5u * 3u);
  EXPECT_EQ(s.chunks_retried, 0u);
  EXPECT_EQ(s.breaker_trips, 0u);

  for (const std::uint64_t id : ids) {
    const service::PlanResult* r = sched.result(id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->outcome, PlanOutcome::kCompleted);
    EXPECT_EQ(r->shards_completed, 5u);
    EXPECT_EQ(r->chunks_completed, 15u);
    EXPECT_EQ(r->chunks_abandoned, 0u);
    EXPECT_FALSE(r->deadline_exceeded);
    EXPECT_TRUE(r->accounting_exact());
    EXPECT_NE(r->digest, 0u);
  }
  expect_accounting_exact(sched);
}

TEST(ServiceScheduler, ResultLookupIsNullUntilFinished) {
  Scheduler sched(Scheduler::Config{}, 1);
  EXPECT_EQ(sched.result(0), nullptr);
  EXPECT_EQ(sched.result(1), nullptr);   // never admitted
  const service::Admission a = sched.submit(plan("t", 1, 1, 4));
  ASSERT_TRUE(a.accepted);
  EXPECT_EQ(sched.result(a.plan_id), nullptr);  // still running
  ASSERT_TRUE(sched.drain(100));
  ASSERT_NE(sched.result(a.plan_id), nullptr);
  EXPECT_EQ(sched.result(a.plan_id)->outcome, PlanOutcome::kCompleted);
}

// ------------------------------------------------- seeds and fingerprints --

TEST(ServiceScheduler, SameSaltDedupsDifferentTenantsDiverge) {
  Scheduler sched(Scheduler::Config{}, 21);
  const auto a1 = sched.submit(plan("alice", 2, 2, 1));
  const auto a2 = sched.submit(plan("alice", 2, 2, 1));  // same namespace+salt
  const auto b = sched.submit(plan("bob", 2, 2, 1));     // other namespace
  TestPlan salted = plan("alice", 2, 2, 1);
  salted.seed_salt = 99;
  const auto a3 = sched.submit(salted);
  ASSERT_TRUE(sched.drain(10'000));

  const std::uint64_t d1 = sched.result(a1.plan_id)->digest;
  const std::uint64_t d2 = sched.result(a2.plan_id)->digest;
  const std::uint64_t db = sched.result(b.plan_id)->digest;
  const std::uint64_t d3 = sched.result(a3.plan_id)->digest;
  EXPECT_EQ(d1, d2) << "identical plan+salt in one tenant must dedup";
  EXPECT_NE(d1, db) << "tenant namespaces must not collide";
  EXPECT_NE(d1, d3) << "salts must separate results within a tenant";
}

TEST(ServiceScheduler, SchedulerSeedNamespacesResults) {
  std::uint64_t digests[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    Scheduler sched(Scheduler::Config{}, /*seed=*/100 + i);
    const auto a = sched.submit(plan("t", 1, 2, 1));
    ASSERT_TRUE(sched.drain(1'000));
    digests[i] = sched.result(a.plan_id)->digest;
  }
  EXPECT_NE(digests[0], digests[1]);
}

// ---------------------------------------------------------------- chaos ---

FaultPlan chaos_plan(std::uint64_t seed) {
  FaultPlan chaos(seed);
  // Site 0 hangs for a long window: hang aborts, breaker trip, quarantine,
  // probed reinstatement after the window ends.
  chaos.schedule(site_fault(FaultKind::kSiteHang, 0, 5, 60));
  // Site 1 refuses a third of the work it is offered for a while.
  chaos.schedule(site_fault(FaultKind::kSpuriousBusy, 1, 0, 80, 0.33));
  // Site 2 runs degraded (slow) the whole time.
  chaos.schedule(site_fault(FaultKind::kSiteSlow, 2, 0, FaultSpec::kForever,
                            1.0));
  return chaos;
}

Scheduler::Config chaos_config(const FaultPlan& chaos) {
  Scheduler::Config config;
  config.fleet.sites = 4;
  config.fleet.slow_multiplier = 4;
  config.fleet.faults = chaos;
  config.hang_budget_ticks = 3;
  config.breaker.failure_threshold = 2;
  config.breaker.quarantine_ticks = 8;
  config.breaker.max_quarantine_ticks = 64;
  config.work_iterations = 64;
  return config;
}

std::string run_chaos_scenario(const Scheduler::Config& config,
                               std::uint64_t seed) {
  Scheduler sched(config, seed);
  for (int i = 0; i < 12; ++i) {
    TestPlan p = plan("tenant" + std::to_string(i % 4), 4, 3, 2);
    p.kind = static_cast<PlanKind>(i % 4);
    if (i % 5 == 4) {
      p.deadline_ticks = 12;  // some plans race a tight deadline
    }
    EXPECT_TRUE(sched.submit(p).accepted);
  }
  EXPECT_TRUE(sched.drain(100'000));
  expect_accounting_exact(sched);
  return sched.replay_fingerprint();
}

TEST(ServiceChaos, AccountingStaysExactUnderChaos) {
  Scheduler sched(chaos_config(chaos_plan(404)), /*seed=*/11);
  for (int i = 0; i < 10; ++i) {
    std::string tenant = "t";
    tenant += std::to_string(i % 2);
    ASSERT_TRUE(sched.submit(plan(tenant, 3, 3, 2)).accepted);
  }
  ASSERT_TRUE(sched.drain(100'000));

  const service::ServiceStats& s = sched.stats();
  EXPECT_EQ(s.admitted, s.completed + s.partial + s.abandoned);
  EXPECT_GT(s.chunks_retried, 0u) << "chaos plan produced no retry pressure";
  EXPECT_GT(s.breaker_trips, 0u) << "chaos plan tripped no breaker";
  for (const service::PlanResult& r : sched.finished_results()) {
    EXPECT_TRUE(r.accounting_exact());
    EXPECT_EQ(r.chunks_completed + r.chunks_abandoned,
              static_cast<std::uint64_t>(r.shards) * 3u);
  }
}

TEST(ServiceChaos, EmptyChaosPlanIsByteIdenticalToFaultFree) {
  Scheduler::Config fault_free;
  fault_free.fleet.sites = 4;
  fault_free.work_iterations = 64;

  Scheduler::Config empty_chaos = fault_free;
  empty_chaos.fleet.faults = FaultPlan(1234);  // seeded but empty

  const std::string a = run_chaos_scenario(fault_free, 5);
  const std::string b = run_chaos_scenario(empty_chaos, 5);
  EXPECT_EQ(a, b);
}

TEST(ServiceChaos, ReplayIsByteIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  const Scheduler::Config config = chaos_config(chaos_plan(777));

  std::vector<std::string> fingerprints;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    util::set_thread_override(threads);
    fingerprints.push_back(run_chaos_scenario(config, 42));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]) << "serial (0) vs 1 thread";
  EXPECT_EQ(fingerprints[0], fingerprints[2]) << "serial (0) vs 8 threads";
}

TEST(ServiceChaos, CompletedPlanDigestSurvivesChaos) {
  // The same plan shape completes under chaos (on healthy sites, with
  // retries) and fault-free; completed digests must match because chunk
  // results are keyed on identity, never on site or attempt count.
  Scheduler clean(chaos_config(FaultPlan(0)), /*seed=*/9);
  Scheduler chaotic(chaos_config(chaos_plan(31337)), /*seed=*/9);

  const auto a = clean.submit(plan("t", 4, 3, 2));
  const auto b = chaotic.submit(plan("t", 4, 3, 2));
  ASSERT_TRUE(clean.drain(100'000));
  ASSERT_TRUE(chaotic.drain(100'000));

  const service::PlanResult* rc = clean.result(a.plan_id);
  const service::PlanResult* rx = chaotic.result(b.plan_id);
  ASSERT_NE(rc, nullptr);
  ASSERT_NE(rx, nullptr);
  ASSERT_EQ(rc->outcome, PlanOutcome::kCompleted);
  if (rx->outcome == PlanOutcome::kCompleted) {
    EXPECT_EQ(rc->digest, rx->digest);
  } else {
    GTEST_SKIP() << "chaos abandoned shards; digest comparison not defined";
  }
}

// ------------------------------------------------ breakers in the fleet ---

TEST(ServiceBreakers, HangingSiteTripsQuarantinesAndReinstated) {
  FaultPlan chaos(55);
  chaos.schedule(site_fault(FaultKind::kSiteHang, 0, 0, 40));
  Scheduler::Config config;
  config.fleet.sites = 2;
  config.fleet.faults = chaos;
  config.hang_budget_ticks = 2;
  config.breaker.failure_threshold = 1;
  config.breaker.quarantine_ticks = 16;
  config.breaker.max_quarantine_ticks = 64;
  Scheduler sched(config, 3);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sched.submit(plan("t", 2, 2, 2)).accepted);
  }
  ASSERT_TRUE(sched.drain(100'000));
  // The queue drains on site 1 before site 0's quarantine elapses; probes
  // keep running on idle ticks, so step past the fault window until the
  // recovered site is probed back into rotation.
  sched.run_for(200);

  const service::ServiceStats& s = sched.stats();
  EXPECT_GE(s.breaker_trips, 1u);
  EXPECT_GE(s.probes, 1u);
  EXPECT_GE(s.breaker_reinstated, 1u)
      << "site 0 recovers at tick 40 and must be probed back in";
  EXPECT_EQ(sched.breaker_state(0), BreakerState::kClosed);
  EXPECT_EQ(sched.breaker(0).trips(), s.breaker_trips);
  // Everything still completed: site 1 carried the load meanwhile.
  EXPECT_EQ(s.completed, 4u);
  expect_accounting_exact(sched);
}

TEST(ServiceBreakers, AllSitesDeadDegradesGracefully) {
  FaultPlan chaos(66);
  chaos.schedule(site_fault(FaultKind::kSpuriousBusy, FaultSpec::kAllIndices,
                            0, FaultSpec::kForever, 1.0));
  Scheduler::Config config;
  config.fleet.sites = 2;
  config.fleet.faults = chaos;
  config.max_shard_retries = 2;
  config.breaker.failure_threshold = 2;
  config.breaker.quarantine_ticks = 4;
  Scheduler sched(config, 8);

  TestPlan dead = plan("t", 3, 2, 1);
  dead.deadline_ticks = 40;  // bounds the wait on a fleet that never heals
  ASSERT_TRUE(sched.submit(dead).accepted);
  ASSERT_TRUE(sched.drain(100'000))
      << "deadline must terminate the plan even with every breaker open";

  const service::ServiceStats& s = sched.stats();
  EXPECT_EQ(s.abandoned, 1u);
  EXPECT_EQ(s.completed, 0u);
  const service::PlanResult* r = sched.result(1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->outcome, PlanOutcome::kAbandoned);
  EXPECT_TRUE(r->deadline_exceeded);
  EXPECT_EQ(r->shards_abandoned, 3u);
  EXPECT_EQ(r->chunks_completed, 0u);
  EXPECT_EQ(r->chunks_abandoned, 6u);
  EXPECT_EQ(r->digest, 0u) << "no completed shards, empty fold";

  const fault::HealthReport health = sched.self_test();
  EXPECT_EQ(health.worst(), fault::HealthStatus::kFailed)
      << "every breaker open must surface as a failed self-test";
}

// -------------------------------------------------------------- deadlines --

TEST(ServiceDeadlines, TightDeadlineYieldsPartialResults) {
  Scheduler::Config config;
  config.fleet.sites = 1;  // serialize shards so the deadline bites
  Scheduler sched(config, 2);

  TestPlan p = plan("t", 4, 2, 3);  // 24 healthy ticks of work on one site
  p.deadline_ticks = 10;
  const auto a = sched.submit(p);
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(sched.drain(10'000));

  const service::PlanResult* r = sched.result(a.plan_id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->deadline_exceeded);
  EXPECT_EQ(r->outcome, PlanOutcome::kPartial);
  EXPECT_GT(r->shards_completed, 0u);
  EXPECT_GT(r->shards_abandoned, 0u);
  EXPECT_TRUE(r->accounting_exact());
  EXPECT_GT(sched.stats().partial, 0u);
}

TEST(ServiceDeadlines, DeadlineZeroMeansNone) {
  Scheduler::Config config;
  config.fleet.sites = 1;
  Scheduler sched(config, 2);
  ASSERT_TRUE(sched.submit(plan("t", 8, 4, 4)).accepted);  // 128 ticks
  ASSERT_TRUE(sched.drain(10'000));
  EXPECT_EQ(sched.stats().completed, 1u);
  EXPECT_FALSE(sched.finished_results()[0].deadline_exceeded);
}

// ------------------------------------------------------- drain exhaustion --

TEST(ServiceScheduler, DrainBudgetExhaustionForceFinalizesExactly) {
  FaultPlan chaos(77);
  chaos.schedule(site_fault(FaultKind::kSiteHang, FaultSpec::kAllIndices, 0,
                            FaultSpec::kForever));
  Scheduler::Config config;
  config.fleet.sites = 2;
  config.fleet.faults = chaos;
  config.breaker.quarantine_ticks = 1'000'000;  // nothing ever recovers
  config.breaker.max_quarantine_ticks = 1'000'000;
  Scheduler sched(config, 4);

  ASSERT_TRUE(sched.submit(plan("t", 2, 2, 1)).accepted);
  ASSERT_TRUE(sched.submit(plan("u", 2, 2, 1)).accepted);
  EXPECT_FALSE(sched.drain(200)) << "permanently hung fleet cannot drain";

  // Even on the forced path the termination identity holds exactly.
  const service::ServiceStats& s = sched.stats();
  EXPECT_EQ(s.in_flight(), 0u);
  EXPECT_EQ(s.admitted, s.completed + s.partial + s.abandoned);
  for (const service::PlanResult& r : sched.finished_results()) {
    EXPECT_TRUE(r.accounting_exact());
  }
}

// -------------------------------------------------------------- self-test --

TEST(ServiceSelfTest, ReportsSchedulerAndFleetComponents) {
  Scheduler sched(Scheduler::Config{}, 1);
  fault::HealthReport report = sched.self_test();
  EXPECT_EQ(report.worst(), fault::HealthStatus::kOk);
  bool saw_scheduler = false;
  bool saw_fleet = false;
  for (const fault::ComponentHealth& entry : report.components()) {
    saw_scheduler |= entry.component == "scheduler";
    saw_fleet |= entry.component.rfind("fleet.site", 0) == 0;
  }
  EXPECT_TRUE(saw_scheduler);
  EXPECT_TRUE(saw_fleet);
}

TEST(ServiceSelfTest, DeepProbeRunsCoreSelfTest) {
  FaultPlan chaos(88);
  chaos.schedule(site_fault(FaultKind::kSiteHang, 0, 0, 20));
  Scheduler::Config config;
  config.fleet.sites = 2;
  config.fleet.deep_probe = true;  // HALF_OPEN probes run core::TestSystem
  config.fleet.faults = chaos;
  config.hang_budget_ticks = 1;
  config.breaker.failure_threshold = 1;
  config.breaker.quarantine_ticks = 4;
  Scheduler sched(config, 12);

  ASSERT_TRUE(sched.submit(plan("t", 2, 2, 1)).accepted);
  ASSERT_TRUE(sched.drain(100'000));
  sched.run_for(100);  // step past the fault window so a deep probe passes
  EXPECT_GE(sched.stats().probes, 1u);
  EXPECT_GE(sched.stats().breaker_reinstated, 1u);
}

}  // namespace
}  // namespace mgt
