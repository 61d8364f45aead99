// The benchmark's own tests: the tail-percentile rule, digest stability
// across runs (and between the plain and traced forms of an op), and
// byte-identity of the timing forwarder against the bare sink.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "analysis/eye.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "signal/render.hpp"
#include "signal/sinks.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mgt;

TEST(PercentileRule, NearestRank) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) {
    xs.push_back(i);
  }
  EXPECT_EQ(percentile(xs, 500), 50.0);
  EXPECT_EQ(percentile(xs, 900), 90.0);
  EXPECT_EQ(percentile(xs, 990), 99.0);
  EXPECT_EQ(percentile(xs, 1000), 100.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile({}, 500), 0.0);
  EXPECT_EQ(percentile({7.0}, 900), 7.0);
}

TEST(PercentileRule, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 900), 10u);
  EXPECT_EQ(samples_beyond(99, 900), 9u);
  EXPECT_EQ(tail_permille(19), 0u);
  EXPECT_EQ(tail_permille(20), 500u);
  EXPECT_EQ(tail_permille(99), 500u);
  EXPECT_EQ(tail_permille(100), 900u);
  EXPECT_EQ(tail_permille(999), 900u);
  EXPECT_EQ(tail_permille(1000), 990u);
  EXPECT_EQ(tail_permille(9999), 990u);
  EXPECT_EQ(tail_permille(10000), 999u);
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  Tracer tracer;
  const std::int32_t root = tracer.open("op", -1);
  tracer.add_aggregate("child", root, 0, 30, 3);
  tracer.add_aggregate("child", root, 0, 20, 1);
  tracer.close(root);
  const auto self = tracer.self_ns_by_layer();
  const std::int64_t op_ns = tracer.spans()[0].dur_ns;
  EXPECT_EQ(self.at("op"), op_ns - 50);
  EXPECT_EQ(self.at("child"), 50);
  EXPECT_EQ(tracer.total_ns("child"), 50);
}

std::vector<std::uint64_t> plain_digests(const std::string& name,
                                         std::uint64_t seed, std::size_t n) {
  auto w = make_workload(name, seed);
  std::vector<std::uint64_t> out;
  for (std::size_t k = 0; k < n; ++k) {
    const OpResult r = w->run_op();
    EXPECT_TRUE(r.band_failure.empty()) << name << ": " << r.band_failure;
    out.push_back(r.digest);
  }
  return out;
}

TEST(Digests, StableAcrossRunsAndEqualToTheTracedReplica) {
  for (const std::string& name : workload_names()) {
    const auto first = plain_digests(name, 7, 2);
    EXPECT_EQ(first, plain_digests(name, 7, 2)) << name;
    EXPECT_NE(first[0], first[1]) << name << ": ops must not repeat";
    EXPECT_NE(first, plain_digests(name, 8, 2)) << name;

    auto traced = make_workload(name, 7);
    Tracer tracer;
    TraceCounts counts;
    for (std::size_t k = 0; k < first.size(); ++k) {
      const Scope op(tracer, "op");
      EXPECT_EQ(traced->run_traced_op(tracer, op.id(), counts).digest,
                first[k])
          << name << " op " << k;
    }
  }
}

TEST(Digests, WorkloadNamesAreChecked) {
  EXPECT_THROW(make_workload("no_such_workload", 1), std::invalid_argument);
}

/// Renders a multi-chunk window once, with a bare sink and a forwarded
/// twin in the same pass, so both see exactly the same calls.
template <typename Sink, typename MakeSink>
std::pair<Sink, Sink> render_twins(const MakeSink& make_sink,
                                   std::uint64_t& forwarded_samples) {
  core::TestSystem sys(core::presets::optical_testbed(), 11);
  sys.program_prbs(7, 0x55);
  sys.start();
  const core::Stimulus stim = sys.generate(400);
  const sig::RenderConfig render{.levels = stim.levels};
  const Picoseconds begin = stim.t0;
  const Picoseconds end{stim.t0.ps() + 400.0 * stim.ui.ps()};
  const sig::RenderChunking chunking{.chunk_samples = 40000,
                                     .settle_samples = 4096};
  const std::size_t n_chunks =
      sig::render_chunk_count(render, begin, end, chunking);
  EXPECT_GE(n_chunks, 4u);

  std::vector<std::unique_ptr<Sink>> bare;
  std::vector<std::unique_ptr<Sink>> twin;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    bare.push_back(std::make_unique<Sink>(make_sink()));
    twin.push_back(std::make_unique<Sink>(make_sink()));
    TimedSink timed(*twin.back());
    sig::render_chunk(stim.edges, stim.chain, render, begin, end, chunking, c,
                      {bare.back().get(), &timed});
    forwarded_samples += timed.samples();
  }
  Sink a = std::move(*bare.front());
  Sink b = std::move(*twin.front());
  for (std::size_t c = 1; c < n_chunks; ++c) {
    a.merge(*bare[c]);
    b.merge(*twin[c]);
  }
  return {std::move(a), std::move(b)};
}

void expect_same_crossings(const std::vector<sig::Crossing>& a,
                           const std::vector<sig::Crossing>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].time.ps()),
              std::bit_cast<std::uint64_t>(b[i].time.ps()));
    EXPECT_EQ(a[i].rising, b[i].rising);
  }
}

TEST(TimedSink, EyeByteIdenticalToBareSinkOverChunks) {
  const ana::EyeDiagram::Config config{.ui = Picoseconds{400.0}};
  std::uint64_t forwarded = 0;
  const auto [bare, timed] = render_twins<ana::EyeDiagram>(
      [&] { return ana::EyeDiagram(config); }, forwarded);
  EXPECT_EQ(bare.total_samples(), timed.total_samples());
  EXPECT_EQ(forwarded, timed.total_samples());
  for (std::size_t tb = 0; tb < config.time_bins; ++tb) {
    for (std::size_t vb = 0; vb < config.volt_bins; ++vb) {
      ASSERT_EQ(bare.count_at(tb, vb), timed.count_at(tb, vb));
    }
  }
  expect_same_crossings(bare.crossings(), timed.crossings());
  const auto ma = bare.metrics();
  const auto mb = timed.metrics();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.eye_height.mv()),
            std::bit_cast<std::uint64_t>(mb.eye_height.mv()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.level_high.mv()),
            std::bit_cast<std::uint64_t>(mb.level_high.mv()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.jitter.rms.ps()),
            std::bit_cast<std::uint64_t>(mb.jitter.rms.ps()));
}

TEST(TimedSink, CrossingRecorderByteIdenticalToBareSinkOverChunks) {
  std::uint64_t forwarded = 0;
  const auto [bare, timed] = render_twins<sig::CrossingRecorder>(
      [] { return sig::CrossingRecorder(Millivolts{2000.0}); }, forwarded);
  EXPECT_GT(forwarded, 0u);
  expect_same_crossings(bare.crossings(), timed.crossings());
}

}  // namespace
}  // namespace perfbench
