// Allocation budget for the stimulus and measurement paths.
//
// This binary replaces the global operator new/delete with counting
// versions. A call may allocate per acquisition, per vector growth or per
// obs update, but not per bit: for each path the count at 4n bits must stay
// within 2x the count at n bits plus a small slack. A contract check that
// builds its message on every pass (one heap string per BitVector::get or
// EdgeStream::push) fails this at once. The dense render and the obs
// counter lookup are held tighter: they allocate nothing at all.
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
#include "obs/obs.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "util/bitvec.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

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
  // render chunk of 2^20 samples makes a few allocations of its own (the
  // one-entry sink list render_chunk takes and the chunk recorder's
  // crossing vector growth; the chunk sink itself lives in a pre-sized
  // slot). At 100 and 400 edges (2 and 5 chunks) that term stays inside
  // the slack; a per-bit allocation (over 100 per edge) does not.
  const util::ScopedThreads serial(0);
  core::TestSystem sys(core::presets::optical_testbed(), 3);
  expect_flat("TestSystem::measure_single_edge_jitter", 100, [&](std::size_t n) {
    (void)sys.measure_single_edge_jitter(n);
  });
}

TEST(AllocBudget, DenseRenderDoesNotAllocate) {
  // The renderer reads the chain by reference and delivers through a
  // SampleBlock on the stack, and the obs counters it bumps are registered
  // by the warm-up call, so neither a whole render nor a chunk allocates.
  const util::ScopedThreads serial(0);
  sig::FilterChain chain;
  chain.add_pole(Picoseconds{40.0}).add_pole(Picoseconds{25.0});
  Rng rng(5);
  const std::size_t n_bits = 64;
  const Picoseconds ui{400.0};
  const sig::EdgeStream stream =
      sig::EdgeStream::from_bits(BitVector::random(n_bits, rng), ui);
  const sig::RenderConfig rc;
  const Picoseconds t_end{static_cast<double>(n_bits) * ui.ps()};
  sig::AmplitudeTracker tracker{rc.levels.midpoint()};
  const std::vector<sig::WaveformSink*> sinks{&tracker};

  const auto whole = [&] {
    sig::render(stream, chain, rc, Picoseconds{0}, t_end, sinks);
  };
  whole();
  EXPECT_EQ(allocations_of(whole), 0u) << "render()";

  const sig::RenderChunking chunking{20000, 64};
  ASSERT_EQ(sig::render_chunk_count(rc, Picoseconds{0}, t_end, chunking), 3u);
  const auto chunk = [&](std::size_t c) {
    sig::render_chunk(stream, chain, rc, Picoseconds{0}, t_end, chunking, c,
                      sinks);
  };
  chunk(0);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(allocations_of([&] { chunk(c); }), 0u)
        << "render_chunk(" << c << ")";
  }
}

TEST(AllocBudget, CounterLookupDoesNotAllocate) {
  // Longer than any small-string buffer: a lookup that built its key would
  // allocate on every call.
  const char* const name = "alloc.budget.counter";
  obs::add_counter(name);
  EXPECT_EQ(allocations_of([&] { obs::add_counter(name); }), 0u);
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
