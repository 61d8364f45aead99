// Allocation budget for the stimulus and measurement paths.
//
// This binary replaces the global operator new/delete with counting
// versions. A call may allocate per acquisition, per vector growth or per
// obs update, but not per bit: for each path the count at 4n bits must stay
// within 2x the count at n bits plus a small slack. A contract check that
// builds its message on every pass (one heap string per BitVector::get or
// EdgeStream::push) fails this at once.
//
// Everything runs serially (ScopedThreads(0)), and each path runs once
// before counting so first-use registrations (obs counters, the thread
// pool's state) are not counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/minitester.hpp"
#include "util/parallel.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace mgt {
namespace {

template <class F>
std::size_t allocations_of(F&& call) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  call();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Runs `call(n)` once to warm up, then counts `call(n)` and `call(4n)`.
template <class F>
void expect_flat(const char* what, std::size_t n, F&& call) {
  call(n);
  const std::size_t small = allocations_of([&] { call(n); });
  const std::size_t large = allocations_of([&] { call(4 * n); });
  EXPECT_LE(large, 2 * small + 64)
      << what << ": " << small << " allocations at " << n << " bits, "
      << large << " at " << 4 * n;
}

TEST(AllocBudget, GenerateDoesNotAllocatePerBit) {
  const util::ScopedThreads serial(0);
  for (const auto& config :
       {core::presets::optical_testbed(), core::presets::minitester()}) {
    core::TestSystem sys(config, 1);
    sys.program_prbs(7, 1);
    sys.start();
    expect_flat("TestSystem::generate", 2048,
                [&](std::size_t n) { (void)sys.generate(n); });
  }
}

TEST(AllocBudget, AcquireEyeDoesNotAllocatePerBit) {
  const util::ScopedThreads serial(0);
  core::TestSystem sys(core::presets::optical_testbed(), 2);
  sys.program_prbs(7, 1);
  sys.start();
  expect_flat("TestSystem::acquire_eye", 2000,
              [&](std::size_t n) { (void)sys.acquire_eye(n); });
}

TEST(AllocBudget, SingleEdgeJitterDoesNotAllocatePerEdge) {
  // This window is long (about 2^20 grid samples per 80 edges), and each
  // render chunk of 2^20 samples costs about 15 allocations of its own (the
  // chunk's sink, its filter-chain copy, the obs counter key, its crossing
  // vector's growth). At 100 and 400 edges (2 and 5 chunks) that term stays
  // inside the slack; a per-bit allocation (over 100 per edge) does not.
  const util::ScopedThreads serial(0);
  core::TestSystem sys(core::presets::optical_testbed(), 3);
  expect_flat("TestSystem::measure_single_edge_jitter", 100, [&](std::size_t n) {
    (void)sys.measure_single_edge_jitter(n);
  });
}

TEST(AllocBudget, BathtubDoesNotAllocatePerBit) {
  const util::ScopedThreads serial(0);
  minitester::MiniTester::Config config;
  config.channel = core::presets::minitester();
  minitester::MiniTester tester(config, 4);
  tester.program_prbs(7, 1);
  tester.start();
  expect_flat("MiniTester::bathtub", 128,
              [&](std::size_t n) { (void)tester.bathtub(n, 1); });
}

}  // namespace
}  // namespace mgt
