// Edge retiming: the stages that move every edge of a stream by a part's
// delay and jitter (output buffer, fanout, delay line, jitter source, laser
// and detector), held bit for bit on streams crowded enough that the
// spacing floor engages.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "pecl/buffer.hpp"
#include "pecl/delayline.hpp"
#include "pecl/fanout.hpp"
#include "signal/edge.hpp"
#include "signal/jitter.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"
#include "vortex/optics.hpp"

namespace mgt {
namespace {

using sig::kMinEdgeSpacing;
using sig::Transition;

void mix_stream(util::Fnv64& digest, const sig::EdgeStream& s) {
  digest.mix_bool(s.initial_level());
  digest.mix_u64(s.size());
  for (const Transition& tr : s.transitions()) {
    digest.mix_double(tr.time.ps());
    digest.mix_bool(tr.level);
  }
}

// Edges that sit exactly one spacing floor after the previous edge.
std::size_t squeezed(const sig::EdgeStream& s) {
  std::size_t n = 0;
  const auto& trs = s.transitions();
  for (std::size_t i = 1; i < trs.size(); ++i) {
    n += trs[i].time == trs[i - 1].time + kMinEdgeSpacing ? 1 : 0;
  }
  return n;
}

// 4,000 random bits at 100 ps with 45 ps RMS of edge jitter, then a burst
// of pulses 2 fs wide: enough crowding that every stage's RJ squeezes some
// edges onto the spacing floor.
sig::EdgeStream crowded_stream() {
  Rng bits_rng(11);
  Rng jitter_rng(12);
  const auto bits = BitVector::random(4000, bits_rng);
  sig::EdgeStream s = sig::EdgeStream::from_bits(
      bits, Picoseconds{100.0}, Picoseconds{0.0},
      [&](std::size_t, Picoseconds) {
        return Picoseconds{jitter_rng.gaussian(0.0, 45.0)};
      });
  bool level = s.transitions().back().level;
  const double t0 = s.transitions().back().time.ps() + 100.0;
  for (int k = 0; k < 200; ++k) {
    level = !level;
    s.push(Picoseconds{t0 + 0.002 * k}, level);
  }
  return s;
}

// RJ far wider than the edge spacing: most edges land before their
// predecessor, and each of those lands exactly one floor after it. The
// oracle replays the stage's draws from a copy of its Rng.
TEST(Retime, SqueezedEdgesLandOneFloorApart) {
  sig::EdgeStream in(false);
  for (int k = 0; k < 2000; ++k) {
    in.push(Picoseconds{10.0 * k}, k % 2 == 0);
  }
  const Picoseconds delay{75.0};
  const Picoseconds sigma{400.0};
  Rng rng(31);
  Rng replay = rng;
  const sig::EdgeStream out = sig::delay_and_jitter(in, delay, sigma, rng);

  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out.initial_level(), in.initial_level());
  EXPECT_TRUE(out.well_formed());
  std::size_t clamped = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Transition& got = out.transitions()[i];
    EXPECT_EQ(got.level, in.transitions()[i].level);
    const Picoseconds free = in.transitions()[i].time + delay +
                             Picoseconds{replay.gaussian(0.0, sigma.ps())};
    if (i == 0) {
      EXPECT_EQ(got.time, free);
      continue;
    }
    const Picoseconds floor = out.transitions()[i - 1].time + kMinEdgeSpacing;
    if (free < floor) {
      EXPECT_EQ(got.time, floor) << "edge " << i;
      ++clamped;
    } else {
      EXPECT_EQ(got.time, free) << "edge " << i;
    }
  }
  EXPECT_GT(clamped, in.size() / 3);
  EXPECT_EQ(rng.next(), replay.next());
}

// With no RJ the stage is a pure shift and draws no RNG word at all: the
// next word matches an untouched copy of the stream.
TEST(Retime, ZeroSigmaDrawsNoRngWord) {
  const auto in = sig::EdgeStream::clock(Picoseconds{400.0}, 50);
  Rng rng(32);
  Rng untouched = rng;
  const sig::EdgeStream out =
      sig::delay_and_jitter(in, Picoseconds{160.0}, Picoseconds{0.0}, rng);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out.transitions()[i].time,
              in.transitions()[i].time + Picoseconds{160.0});
  }
  EXPECT_EQ(rng.next(), untouched.next());
}

// The output of every retiming stage on one crowded stream, digested. It
// pins each edge time and, through the draws that follow, each stage's RNG
// consumption. Recorded before the stages shared one retiming primitive.
TEST(Retime, StagesKeepTheirBits) {
  const sig::EdgeStream in = crowded_stream();
  util::Fnv64 digest;

  pecl::OutputBuffer buffer(pecl::OutputBuffer::Config{}, Rng(21));
  const sig::EdgeStream buffered = buffer.apply(in);
  EXPECT_GT(squeezed(buffered), 50u);
  mix_stream(digest, buffered);
  mix_stream(digest, buffer.apply(in));

  pecl::ProgrammableDelay::Config delay_config;
  delay_config.rj_sigma = Picoseconds{5.0};
  pecl::ProgrammableDelay healthy(delay_config, Rng(22));
  healthy.set_code(37);
  mix_stream(digest, healthy.apply(in));

  pecl::ProgrammableDelay drifting(delay_config, Rng(22));
  drifting.set_code(37);
  fault::FaultPlan plan(5);
  plan.schedule({.kind = fault::FaultKind::kDelayDrift,
                 .component = "strobe",
                 .severity = 0.4,
                 .start = 100,
                 .duration = 900});
  drifting.set_faults(plan.component("strobe"));
  mix_stream(digest, drifting.apply(in));

  pecl::ClockFanout fanout(pecl::ClockFanout::Config{}, Rng(23));
  for (std::size_t out = 0; out < fanout.outputs(); ++out) {
    mix_stream(digest, fanout.drive(in, out));
  }

  sig::JitterSource jitter(
      sig::JitterSpec{.rj_sigma = Picoseconds{3.0},
                      .dj_pp = Picoseconds{12.0},
                      .pj_amplitude = Picoseconds{6.0},
                      .pj_frequency = Gigahertz{0.1}},
      Rng(24));
  mix_stream(digest, jitter.apply(in));

  vortex::LaserDriver laser(vortex::LaserDriver::Config{}, Rng(25));
  vortex::Photodetector detector(Rng(26));
  const vortex::OpticalStream launched = laser.modulate(in);
  mix_stream(digest, launched.edges);
  mix_stream(digest,
             detector.detect(vortex::OpticalPath().propagate(launched)));

  EXPECT_EQ(digest.digest(), 0x2559afd4dbe98ae2ULL);
}

}  // namespace
}  // namespace mgt
