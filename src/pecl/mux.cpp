#include "pecl/mux.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace mgt::pecl {

namespace {
/// Builder bounds: the widest PECL parts the model characterizes and a
/// lane ceiling that keeps skew tables and bit math comfortably in range.
constexpr std::size_t kMaxFanIn = 64;
constexpr std::size_t kMaxStages = 6;
constexpr std::size_t kMaxLanes = 4096;
}  // namespace

SerializerTree::SerializerTree(Config config, Rng rng)
    : config_(std::move(config)), rng_(rng) {
  MGT_CHECK(!config_.stages.empty(), "serializer needs at least one stage");
  MGT_CHECK(config_.stages.size() <= kMaxStages,
            "serializer tree too deep (max 6 stages)");
  std::size_t lanes = 1;
  for (const auto& stage : config_.stages) {
    MGT_CHECK(stage.fan_in >= 2, "mux stage fan-in must be at least 2");
    MGT_CHECK(stage.fan_in <= kMaxFanIn, "mux stage fan-in above part range");
    MGT_CHECK(stage.skew_pp.ps() >= 0.0 && stage.rj_sigma.ps() >= 0.0 &&
                  stage.prop_delay.ps() >= 0.0,
              "mux stage parameters must be non-negative");
    lanes *= stage.fan_in;
    MGT_CHECK(lanes <= kMaxLanes, "serializer tree exceeds the lane ceiling");
  }
  for (const auto& stage : config_.stages) {
    std::vector<Picoseconds> stage_skews;
    stage_skews.reserve(stage.fan_in);
    for (std::size_t i = 0; i < stage.fan_in; ++i) {
      stage_skews.push_back(Picoseconds{rng_.uniform(
          -stage.skew_pp.ps() / 2.0, stage.skew_pp.ps() / 2.0)});
    }
    skews_.push_back(std::move(stage_skews));
  }
}

std::size_t SerializerTree::total_lanes() const {
  std::size_t lanes = 1;
  for (const auto& stage : config_.stages) {
    lanes *= stage.fan_in;
  }
  return lanes;
}

Picoseconds SerializerTree::total_prop_delay() const {
  double d = 0.0;
  for (const auto& stage : config_.stages) {
    d += stage.prop_delay.ps();
  }
  return Picoseconds{d};
}

Picoseconds SerializerTree::skew_for_bit(std::size_t k) const {
  // Decompose the serial index: the final stage's input selects fastest.
  double skew = 0.0;
  std::size_t rem = k;
  for (std::size_t s = 0; s < config_.stages.size(); ++s) {
    const std::size_t input = rem % config_.stages[s].fan_in;
    rem /= config_.stages[s].fan_in;
    skew += skews_[s][input].ps();
  }
  return Picoseconds{skew};
}

Picoseconds SerializerTree::skew_profile_pp() const {
  const std::size_t lanes = total_lanes();
  double lo = 1e300;
  double hi = -1e300;
  for (std::size_t k = 0; k < lanes; ++k) {
    const double s = skew_for_bit(k).ps();
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  return Picoseconds{hi - lo};
}

Picoseconds SerializerTree::total_rj_sigma() const {
  double sum_sq = config_.clock_rj_sigma.ps() * config_.clock_rj_sigma.ps();
  for (const auto& stage : config_.stages) {
    sum_sq += stage.rj_sigma.ps() * stage.rj_sigma.ps();
  }
  return Picoseconds{std::sqrt(sum_sq)};
}

void SerializerTree::set_faults(fault::ComponentFaults faults) {
  faults_ = std::move(faults);
}

BitVector SerializerTree::faulted_bits(const BitVector& bits) const {
  const std::size_t lanes = total_lanes();
  BitVector out = bits;
  // The NRZ stream's level before serial bit 0 is bit 0's own value
  // (sig::EdgeStream::from_bits seeds its initial level from bits[0]), so
  // a dropout hitting bit 0 holds that level rather than forcing 0.
  bool previous = bits.empty() ? false : bits.get(0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t lane = lane_for_bit(k);
    bool value = out.get(k);
    for (const fault::FaultSpec& spec : faults_.specs()) {
      if (!spec.active_at(k)) {
        continue;
      }
      // kAllIndices + severity selects the low `severity` fraction of the
      // lane bus (how a failing mux part takes out adjacent inputs).
      const bool hits =
          spec.index == fault::FaultSpec::kAllIndices
              ? static_cast<double>(lane) <
                    spec.severity * static_cast<double>(lanes)
              : spec.index == lane;
      if (!hits) {
        continue;
      }
      if (spec.kind == fault::FaultKind::kMuxStuckAt) {
        value = spec.stuck_high;
      } else if (spec.kind == fault::FaultKind::kMuxDropout) {
        value = previous;  // lane contributes no transition
      }
    }
    out.set(k, value);
    previous = value;
  }
  return out;
}

sig::EdgeStream SerializerTree::serialize(const BitVector& bits,
                                          GbitsPerSec rate, Picoseconds t0) {
  MGT_CHECK(rate.gbps() > 0.0);
  obs::add_counter("pecl.mux.serializations");
  obs::add_counter("pecl.mux.bits", bits.size());
  if (faults_.any()) {
    obs::add_counter("pecl.mux.faulted_serializations");
  }
  const double sigma = total_rj_sigma().ps();
  const Picoseconds start = t0 + total_prop_delay();
  auto offset = [this, sigma](std::size_t bit_index, Picoseconds) {
    // The edge launching bit k is timed by the path that sources bit k.
    double dt = skew_for_bit(bit_index).ps();
    if (sigma > 0.0) {
      dt += rng_.gaussian(0.0, sigma);
    }
    return Picoseconds{dt};
  };
  if (faults_.any()) {
    return sig::EdgeStream::from_bits(faulted_bits(bits), rate.unit_interval(),
                                      start, offset);
  }
  return sig::EdgeStream::from_bits(bits, rate.unit_interval(), start, offset);
}

SerializerTree::Config SerializerTree::testbed_8to1() {
  Config config;
  config.stages = {MuxStage{.fan_in = 8,
                            .skew_pp = Picoseconds{30.0},
                            .rj_sigma = Picoseconds{1.6},
                            .prop_delay = Picoseconds{220.0}}};
  config.clock_rj_sigma = Picoseconds{1.2};
  return config;
}

SerializerTree::Config SerializerTree::minitester_16to1() {
  Config config;
  // Final 2:1 stage (fastest part, tightest skew), then the two 8:1 stages.
  config.stages = {MuxStage{.fan_in = 2,
                            .skew_pp = Picoseconds{14.0},
                            .rj_sigma = Picoseconds{1.4},
                            .prop_delay = Picoseconds{180.0}},
                   MuxStage{.fan_in = 8,
                            .skew_pp = Picoseconds{22.0},
                            .rj_sigma = Picoseconds{1.2},
                            .prop_delay = Picoseconds{220.0}}};
  config.clock_rj_sigma = Picoseconds{1.2};
  return config;
}

MuxStage SerializerTree::stage_for_fan_in(std::size_t fan_in,
                                          double skew_scale) {
  MGT_CHECK(fan_in >= 2 && fan_in <= kMaxFanIn,
            "mux part fan-in must be in [2, 64]");
  MGT_CHECK(skew_scale >= 0.0, "skew scale must be non-negative");
  // Linearized part family anchored on the 2005 data points: the 2:1 final
  // stage (14 ps skew, 180 ps prop) and the 8:1 stages (22 ps, 220 ps).
  // Wider parts pay more input routing skew and propagation delay; their
  // per-stage RJ shrinks slightly because fewer cascaded retimers follow.
  const double n = static_cast<double>(fan_in);
  return MuxStage{
      .fan_in = fan_in,
      .skew_pp = Picoseconds{(10.0 + 1.5 * n) * skew_scale},
      .rj_sigma = Picoseconds{1.0 + 1.0 / std::sqrt(n)},
      .prop_delay = Picoseconds{150.0 + 10.0 * n},
  };
}

SerializerTree::Config SerializerTree::from_fan_ins(
    const std::vector<std::size_t>& fan_ins, double skew_scale) {
  MGT_CHECK(!fan_ins.empty(), "serializer needs at least one stage");
  MGT_CHECK(fan_ins.size() <= kMaxStages,
            "serializer tree too deep (max 6 stages)");
  Config config;
  std::size_t lanes = 1;
  for (const std::size_t fan_in : fan_ins) {
    config.stages.push_back(stage_for_fan_in(fan_in, skew_scale));
    lanes *= fan_in;
    MGT_CHECK(lanes <= kMaxLanes, "serializer tree exceeds the lane ceiling");
  }
  config.clock_rj_sigma = Picoseconds{1.2};
  return config;
}

SerializerTree::Config SerializerTree::serializer_16to1(double skew_scale) {
  return from_fan_ins({16}, skew_scale);
}

SerializerTree::Config SerializerTree::extension_32lane(double skew_scale) {
  Config config;
  config.stages = {MuxStage{.fan_in = 4,
                            .skew_pp = Picoseconds{12.0 * skew_scale},
                            .rj_sigma = Picoseconds{1.4},
                            .prop_delay = Picoseconds{160.0}},
                   MuxStage{.fan_in = 8,
                            .skew_pp = Picoseconds{22.0 * skew_scale},
                            .rj_sigma = Picoseconds{1.2},
                            .prop_delay = Picoseconds{220.0}}};
  config.clock_rj_sigma = Picoseconds{1.0};
  return config;
}

}  // namespace mgt::pecl
