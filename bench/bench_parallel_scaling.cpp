// Parallel scaling of the deterministic execution layer (util/parallel).
//
// The table checks the determinism contract on the two heaviest pipelines —
// eye accumulation over a multi-chunk acquisition and a 16-site probe-array
// wafer pass: at 1, 2, 4 and 8 worker threads each row's result digest must
// equal the serial run's. Every row is a pure function of the workload, so
// the table is identical from run to run. Timing lives in the google-
// benchmark thread sweeps below (bm_eye_accumulation, bm_wafer_probe).
#include <cstdio>

#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/array.hpp"
#include "util/digest.hpp"
#include "util/parallel.hpp"

using namespace mgt;

namespace {

constexpr std::size_t kThreadSteps[] = {1, 2, 4, 8};

std::uint64_t eye_digest(std::size_t threads) {
  util::ScopedThreads scoped(threads);
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto eye = sys.acquire_eye(4000);  // 3.2 M samples, multi-chunk
  util::Fnv64 f;
  f.mix_u64(eye.total_samples());
  for (std::size_t tb = 0; tb < eye.config().time_bins; ++tb) {
    for (std::size_t vb = 0; vb < eye.config().volt_bins; ++vb) {
      f.mix_u64(eye.count_at(tb, vb));
    }
  }
  for (const sig::Crossing& c : eye.crossings()) {
    f.mix_double(c.time.ps());
    f.mix_bool(c.rising);
  }
  f.mix_double(eye.eye_height().mv());
  return f.digest();
}

std::uint64_t probe_digest(std::size_t threads) {
  util::ScopedThreads scoped(threads);
  minitester::TesterArray::Config config;
  config.testers = 16;
  config.defect_rate = 0.08;
  config.bist_bits = 256;
  minitester::TesterArray array(config, 7);
  const auto wafer = array.probe_wafer(64);
  util::Fnv64 f;
  f.mix_u64(wafer.dies);
  f.mix_u64(wafer.touchdowns);
  f.mix_u64(wafer.fails);
  f.mix_u64(wafer.escapes);
  f.mix_u64(wafer.overkills);
  f.mix_u64(wafer.masked);
  f.mix_double(wafer.total_time_s);
  return f.digest();
}

std::string hex(std::uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

void determinism_rows(ReportTable& table, const char* what,
                      std::uint64_t (*digest)(std::size_t)) {
  const std::uint64_t serial = digest(0);
  for (std::size_t threads : kThreadSteps) {
    const std::uint64_t d = digest(threads);
    table.add_comparison(
        std::string(what) + ", " + std::to_string(threads) + " thread" +
            (threads == 1 ? "" : "s"),
        "== serial " + hex(serial), hex(d),
        d == serial ? "OK (byte-identical)" : "DEVIATES");
  }
}

void run_reproduction(ReportTable& table) {
  determinism_rows(table, "eye accumulation (4k bits)", eye_digest);
  determinism_rows(table, "16-site probe array (64 dies)", probe_digest);
}

void bm_eye_accumulation(benchmark::State& state) {
  util::ScopedThreads scoped(static_cast<std::size_t>(state.range(0)));
  core::TestSystem sys(core::presets::optical_testbed(), 42);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  for (auto _ : state) {
    auto eye = sys.acquire_eye(2000);
    benchmark::DoNotOptimize(eye);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(bm_eye_accumulation)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void bm_wafer_probe(benchmark::State& state) {
  util::ScopedThreads scoped(static_cast<std::size_t>(state.range(0)));
  minitester::TesterArray::Config config;
  config.testers = 16;
  config.bist_bits = 128;
  minitester::TesterArray array(config, 7);
  for (auto _ : state) {
    auto wafer = array.probe_wafer(32);
    benchmark::DoNotOptimize(wafer);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(bm_wafer_probe)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Parallel scaling - deterministic thread pool (MGT_THREADS)");
  run_reproduction(table);
  return bench::finish(table, argc, argv);
}
