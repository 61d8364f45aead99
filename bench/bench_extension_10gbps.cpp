// Extension study: the paper's stated scale-up target (Section 1).
//
// "The end-application will require extending the word width to at least
// 64 bits, and increasing channel data rates to 10 Gbps at each
// wavelength, so that the aggregate data rate will be of the order of a
// Terabit-per-second."
//
// The architecture extends naturally: a 4:1 + 8:1 tree gives 32 DLC lanes
// at 312.5 Mbps for a 10 Gbps serial stream — still inside the FPGA's
// I/O budget. What does NOT extend is the 2005 analog chain, so this bench
// runs a full scenario matrix through core::TestSystem:
//
//   rate {5, 10 Gbps} x mux tree {16:1 flat, 2:1+8:1, 4:1+8:1/32 lanes}
//     x timing mode {stepped 10 ps, vernier 0.67 ps} x skew stress
//     {nominal, 1.5x, 2x}
//
// Every cell emits one "matrix-cell" row into BENCH_extension_10gbps.json
// (schema mgt-bench-v1): analog eye at the output plane plus the
// error-free strobe window a capture strobe placed through the selected
// timing mode actually finds. Physics cross-checks ride along: the eye in
// UI must be non-increasing in rate and in skew severity, a mux-dropout
// BER sweep must be monotone, and the golden-pin guarantees (MGT_THREADS
// 0/1/8 byte-identity, empty-fault-plan byte-identity, vernier == stepped
// at exactly coinciding delay codes) are asserted on real acquisitions.
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/ber.hpp"
#include "analysis/faultsweep.hpp"
#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "digital/dlc.hpp"
#include "pecl/delayline.hpp"
#include "pecl/mux.hpp"
#include "pecl/sampler.hpp"
#include "util/parallel.hpp"

using namespace mgt;

namespace {

constexpr std::uint64_t kSeed = 77;
constexpr std::size_t kStrobeBits = 256;   // multiple of every lane count
constexpr std::size_t kEyeBits = 1536;     // multiple of every lane count

// -- Matrix axes ------------------------------------------------------------

struct TreeAxis {
  const char* name;
  pecl::SerializerTree::Config (*build)(double skew_scale);
};

constexpr TreeAxis kTrees[] = {
    {"16to1-flat", &pecl::SerializerTree::serializer_16to1},
    {"2to1+8to1", nullptr},  // built via from_fan_ins below
    {"4to1+8to1-32lane", &pecl::SerializerTree::extension_32lane},
};

pecl::SerializerTree::Config build_tree(const TreeAxis& tree,
                                        double skew_scale) {
  if (tree.build != nullptr) {
    return tree.build(skew_scale);
  }
  return pecl::SerializerTree::from_fan_ins({2, 8}, skew_scale);
}

constexpr double kRates[] = {5.0, 10.0};
constexpr double kSeverities[] = {0.0, 0.5, 1.0};
constexpr pecl::TimingMode kModes[] = {pecl::TimingMode::kStepped,
                                       pecl::TimingMode::kVernier};

/// The improved analog chain (35 ps rise) the 2005 study concluded the
/// extension needs; severity stresses the mux skew (1 + severity scale).
core::ChannelConfig matrix_config(double rate_gbps, const TreeAxis& tree,
                                  double severity) {
  core::ChannelConfig config;
  config.rate = GbitsPerSec{rate_gbps};
  config.design_name = "tenGig-extension";
  config.serializer = build_tree(tree, 1.0 + severity);
  config.buffer.rise_2080 = Picoseconds{35.0};
  config.buffer.rj_sigma = Picoseconds{1.8};
  config.clock.frequency = Gigahertz{rate_gbps / 4.0};  // instrument ceiling
  config.clock.rj_sigma = Picoseconds{0.8};
  config.hookup = sig::Channel::ideal().config();
  return config;
}

// -- Strobed capture rig ----------------------------------------------------

/// Bits of one strobed acquisition with the strobe placed
/// `delay.actual_delay(code)` past the warmup boundary (the capture side
/// of the mini-tester, pointed at a TestSystem stimulus).
BitVector capture_at(const core::Stimulus& stim, pecl::PeclSampler& sampler,
                     const pecl::ProgrammableDelay& delay, std::size_t code) {
  return stim.capture(sampler, stim.first_strobe(delay, code)).bits;
}

/// Delay code of the mid-UI strobe: errors then come from the data, not
/// the placement.
std::size_t mid_code(const core::Stimulus& stim,
                     const pecl::ProgrammableDelay& delay) {
  return static_cast<std::size_t>(stim.ui.ps() / 2.0 / delay.step().ps());
}

struct StrobeWindow {
  double window_ps = 0.0;
  double step_ps = 0.0;
  std::size_t captures = 0;
};

/// Width of the error-free strobe window across one UI, measured at the
/// timing mode's own placement granularity: a coarse scan finds the clean
/// band, then the band edges are refined code-by-code at the native step.
/// This is where the vernier mode earns its keep — the stepped line cannot
/// resolve the window edge below its 10 ps pitch.
StrobeWindow measure_strobe_window(const core::Stimulus& stim,
                                   pecl::TimingMode mode,
                                   std::uint64_t rig_seed) {
  auto delay_config = core::presets::strobe_delay(mode);
  pecl::ProgrammableDelay delay(delay_config, Rng(rig_seed));
  pecl::PeclSampler sampler(Rng(rig_seed ^ 0x5A3B1EULL));
  const BitVector expected = stim.expected();

  StrobeWindow out;
  out.step_ps = delay.step().ps();
  const auto max_code = static_cast<std::size_t>(
      std::ceil(stim.ui.ps() / out.step_ps));
  const std::size_t stride = std::max<std::size_t>(1, max_code / 16);

  auto clean = [&](std::size_t code) {
    ++out.captures;
    return ana::compare_bits_aligned(capture_at(stim, sampler, delay, code),
                                     expected, 4)
               .errors == 0;
  };

  // Coarse scan: longest clean run across one UI of codes.
  std::vector<std::size_t> codes;
  std::vector<bool> ok;
  for (std::size_t code = 0; code <= max_code; code += stride) {
    codes.push_back(code);
    ok.push_back(clean(code));
  }
  std::size_t best_lo = 0;
  std::size_t best_hi = 0;
  bool found = false;
  for (std::size_t i = 0; i < codes.size();) {
    if (!ok[i]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j + 1 < codes.size() && ok[j + 1]) {
      ++j;
    }
    if (!found || codes[j] - codes[i] >= best_hi - best_lo) {
      best_lo = codes[i];
      best_hi = codes[j];
      found = true;
    }
    i = j + 1;
  }
  if (!found) {
    return out;  // no clean strobe position anywhere: window 0
  }

  // Edge refinement at the native step, bounded by one coarse stride.
  std::size_t lo = best_lo;
  for (std::size_t k = 1; k < stride && lo > 0; ++k) {
    if (!clean(lo - 1)) {
      break;
    }
    --lo;
  }
  std::size_t hi = best_hi;
  for (std::size_t k = 1; k < stride && hi < max_code; ++k) {
    if (!clean(hi + 1)) {
      break;
    }
    ++hi;
  }
  out.window_ps = static_cast<double>(hi - lo) * out.step_ps;
  return out;
}

// -- Byte-identity helpers --------------------------------------------------

bool same_stimulus(const core::Stimulus& a, const core::Stimulus& b) {
  if (a.bits != b.bits ||
      a.edges.transitions().size() != b.edges.transitions().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.edges.transitions().size(); ++i) {
    if (a.edges.transitions()[i].time.ps() !=
            b.edges.transitions()[i].time.ps() ||
        a.edges.transitions()[i].level != b.edges.transitions()[i].level) {
      return false;
    }
  }
  return true;
}

core::Stimulus reference_stimulus(const fault::FaultPlan& plan) {
  core::ChannelConfig config = matrix_config(10.0, kTrees[2], 0.0);
  config.faults = plan;
  core::TestSystem sys(config, kSeed);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  return sys.generate(kStrobeBits);
}

// -- Report sections --------------------------------------------------------

void run_feasibility(ReportTable& table) {
  dig::Dlc dlc;
  dlc.regs().write(dig::reg::kLaneCount, 32);
  const auto lane_rate = dlc.check_lane_rate(GbitsPerSec{10.0});
  table.add_comparison("10 Gbps via 4:1 + 8:1 (32 lanes)",
                       "FPGA I/O must keep its margin",
                       fmt_unit(lane_rate.mbps(), "Mbps/lane", 0),
                       dlc.within_margin(GbitsPerSec{10.0})
                           ? "OK (within margin)"
                           : "DEVIATES");

  // The 2005 parts at 10 Gbps: the negative result motivating the matrix.
  core::ChannelConfig legacy = matrix_config(10.0, kTrees[2], 0.0);
  legacy.buffer.rise_2080 = Picoseconds{100.0};
  legacy.buffer.rj_sigma = Picoseconds{2.6};
  core::TestSystem sys(legacy, kSeed);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  const auto eye = sys.measure_eye(4096);
  const bool usable = eye.eye_opening.ui() >= 0.5 && eye.eye_height.mv() > 0;
  table.add_comparison("2005 mini-tester parts (120 ps rise) at 10 Gbps",
                       "expected NOT usable at UI = 100 ps",
                       "eye " + fmt(eye.eye_opening.ui(), 2) + " UI, height " +
                           fmt(eye.eye_height.mv(), 0) + " mV",
                       usable ? "DEVIATES" : "OK (as expected)");

  const double aggregate_gbps = 64.0 * 10.0;
  table.add_comparison("64 channels x 10 Gbps", "order of Tbps aggregate",
                       fmt(aggregate_gbps / 1000.0, 2) + " Tbps",
                       aggregate_gbps >= 500.0 ? "OK (shape holds)"
                                               : "DEVIATES");
}

void run_matrix(ReportTable& table) {
  std::vector<ana::ScenarioCell> cells;
  for (const double rate : kRates) {
    for (const TreeAxis& tree : kTrees) {
      for (const double severity : kSeverities) {
        core::TestSystem sys(matrix_config(rate, tree, severity), kSeed);
        sys.program_prbs(7, 0xACE1);
        sys.start();
        const auto eye = sys.measure_eye(kEyeBits);
        const core::Stimulus stim = sys.generate(kStrobeBits);
        for (const pecl::TimingMode mode : kModes) {
          const std::uint64_t rig_seed = util::mix_seed(
              kSeed, (static_cast<std::uint64_t>(cells.size()) << 1) |
                         static_cast<std::uint64_t>(mode ==
                                                    pecl::TimingMode::kVernier));
          const StrobeWindow window =
              measure_strobe_window(stim, mode, rig_seed);
          ana::ScenarioCell cell;
          cell.rate = GbitsPerSec{rate};
          cell.tree = tree.name;
          cell.timing_mode = std::string(pecl::to_string(mode));
          cell.severity = severity;
          cell.eye = eye.eye_opening;
          cells.push_back(cell);
          table.add_comparison(
              "matrix-cell " + std::string(tree.name) + " @ " + fmt(rate, 0) +
                  " Gbps, skew x" + fmt(1.0 + severity, 1) + ", " +
                  std::string(pecl::to_string(mode)),
              "shmoo cell",
              "eye " + fmt(eye.eye_opening.ui(), 2) + " UI / " +
                  fmt(eye.eye_width.ps(), 1) + " ps, height " +
                  fmt(eye.eye_height.mv(), 0) + " mV, strobe window " +
                  fmt(window.window_ps, 1) + " ps @ " +
                  fmt(window.step_ps, 2) + " ps step",
              "recorded");
        }
      }
    }
  }

  // Physics cross-checks over the full matrix. The mux skew and jitter are
  // fixed time quantities, so the eye in UI cannot improve as the rate
  // rises or the skew stress grows.
  const UnitIntervals tol{0.05};
  table.add_comparison("matrix monotone in rate",
                       "eye (UI) non-increasing as rate rises",
                       fmt(cells.size(), 0) + " cells checked",
                       ana::eye_nonincreasing_in_rate(cells, tol)
                           ? "OK (monotone)"
                           : "DEVIATES");
  table.add_comparison("matrix monotone in skew severity",
                       "eye (UI) non-increasing as skew stress grows",
                       fmt(cells.size(), 0) + " cells checked",
                       ana::eye_nonincreasing_in_severity(cells, tol)
                           ? "OK (monotone)"
                           : "DEVIATES");
}

void run_dropout_sweep(ReportTable& table) {
  // Mux-dropout fault plan swept through the strobed capture path: more
  // dropped lanes must never *lower* the BER. The sweep starts at serial
  // bit 0 on purpose — it pins the dropout hold-state seeding (a dropout
  // on bit 0 holds the stream's initial level, not a hard zero).
  const std::vector<double> severities = {0.0, 0.25, 0.5, 0.75, 1.0};
  const auto run = [&](double severity) {
    fault::FaultPlan plan(kSeed);
    if (severity > 0.0) {
      plan.schedule({.kind = fault::FaultKind::kMuxDropout,
                     .component = "serializer",
                     .index = fault::FaultSpec::kAllIndices,
                     .severity = severity,
                     .start = 0});
    }
    const core::Stimulus stim = reference_stimulus(plan);
    pecl::ProgrammableDelay delay(
        core::presets::strobe_delay(pecl::TimingMode::kStepped), Rng(kSeed));
    pecl::PeclSampler sampler(Rng(kSeed ^ 0xBEu));
    return ana::compare_bits_aligned(
        capture_at(stim, sampler, delay, mid_code(stim, delay)),
        stim.expected(), 4);
  };
  const auto sweep = ana::fault_sweep(severities, run);
  std::string trace;
  for (const auto& p : sweep) {
    trace += (trace.empty() ? "" : " -> ") + fmt(p.ber, 3);
  }
  table.add_comparison("mux dropout BER sweep", "monotone non-decreasing",
                       trace,
                       ana::ber_monotonic_nondecreasing(sweep, 0.02)
                           ? "OK (monotone)"
                           : "DEVIATES");
}

void run_identity_checks(ReportTable& table) {
  // Golden-pin guarantee 1: MGT_THREADS 0/1/8 byte-identity of a vernier
  // cell (stimulus and strobed capture bytes, not summary statistics).
  {
    auto acquire = [&](std::size_t threads) {
      util::ScopedThreads scoped(threads);
      core::Stimulus stim = reference_stimulus(fault::FaultPlan{});
      pecl::ProgrammableDelay delay(
          core::presets::strobe_delay(pecl::TimingMode::kVernier), Rng(kSeed));
      pecl::PeclSampler sampler(Rng(kSeed ^ 0xBEu));
      BitVector bits = capture_at(stim, sampler, delay, mid_code(stim, delay));
      return std::make_pair(std::move(stim), std::move(bits));
    };
    const auto serial = acquire(0);
    const auto one = acquire(1);
    const auto eight = acquire(8);
    const bool identical = same_stimulus(serial.first, one.first) &&
                           same_stimulus(serial.first, eight.first) &&
                           serial.second == one.second &&
                           serial.second == eight.second;
    table.add_comparison("vernier cell at MGT_THREADS 0/1/8",
                         "byte-identical stimulus + capture",
                         identical ? "all three runs identical" : "diverged",
                         identical ? "OK (deterministic)" : "DEVIATES");
  }

  // Golden-pin guarantee 2: an empty (but seeded) fault plan is
  // byte-identical to no plan at all.
  {
    const core::Stimulus healthy = reference_stimulus(fault::FaultPlan{});
    const core::Stimulus empty_plan =
        reference_stimulus(fault::FaultPlan{12345});
    const bool identical = same_stimulus(healthy, empty_plan);
    table.add_comparison("empty fault plan", "byte-identical to no plan",
                         identical ? "stimulus identical" : "diverged",
                         identical ? "OK (inert)" : "DEVIATES");
  }

  // Golden-pin guarantee 3: with the error models zeroed and binary-exact
  // steps (10 ps vs 0.625 ps), stepped code s and vernier code 16 s
  // program the same delay, so captures at coinciding codes match bytes.
  {
    pecl::ProgrammableDelay::Config stepped_cfg;
    stepped_cfg.step = Picoseconds{10.0};
    stepped_cfg.code_count = 16;
    stepped_cfg.offset_error = Picoseconds{0.0};
    stepped_cfg.gain_error = 0.0;
    stepped_cfg.inl_bound = Picoseconds{0.0};
    stepped_cfg.rj_sigma = Picoseconds{0.0};

    pecl::ProgrammableDelay::Config vernier_cfg = stepped_cfg;
    vernier_cfg.mode = pecl::TimingMode::kVernier;
    vernier_cfg.vernier.step = Picoseconds{0.625};
    vernier_cfg.vernier.code_count = 256;
    vernier_cfg.vernier.ratio_error = 0.0;
    vernier_cfg.vernier.walk_sigma = Picoseconds{0.0};
    vernier_cfg.vernier.walk_bound = Picoseconds{0.0};

    pecl::ProgrammableDelay stepped(stepped_cfg, Rng(kSeed));
    pecl::ProgrammableDelay vernier(vernier_cfg, Rng(kSeed));

    const core::Stimulus stim = reference_stimulus(fault::FaultPlan{});
    bool identical = true;
    for (std::size_t code = 0; code < stepped_cfg.code_count; ++code) {
      if (stepped.actual_delay(code).ps() !=
          vernier.actual_delay(16 * code).ps()) {
        identical = false;
        break;
      }
    }
    if (identical) {
      pecl::PeclSampler sampler_s(Rng(kSeed ^ 0xBEu));
      pecl::PeclSampler sampler_v(Rng(kSeed ^ 0xBEu));
      identical = capture_at(stim, sampler_s, stepped, 5) ==
                  capture_at(stim, sampler_v, vernier, 80);
    }
    table.add_comparison("vernier == stepped at coinciding codes",
                         "byte-identical capture (16 x 0.625 ps = 10 ps)",
                         identical ? "delays and capture identical"
                                   : "diverged",
                         identical ? "OK (modes agree)" : "DEVIATES");
  }
}

void bm_eye_10gbps(benchmark::State& state) {
  core::TestSystem sys(matrix_config(10.0, kTrees[2], 0.0), kSeed);
  sys.program_prbs(7, 0xACE1);
  sys.start();
  for (auto _ : state) {
    auto eye = sys.measure_eye(2048);
    benchmark::DoNotOptimize(eye);
  }
}
BENCHMARK(bm_eye_10gbps)->Unit(benchmark::kMillisecond);

void bm_strobe_window_vernier(benchmark::State& state) {
  core::Stimulus stim = reference_stimulus(fault::FaultPlan{});
  for (auto _ : state) {
    auto window =
        measure_strobe_window(stim, pecl::TimingMode::kVernier, kSeed);
    benchmark::DoNotOptimize(window);
  }
}
BENCHMARK(bm_strobe_window_vernier)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Extension - 10 Gbps scenario matrix (Section 1 target)");
  run_feasibility(table);
  run_matrix(table);
  run_dropout_sweep(table);
  run_identity_checks(table);
  return bench::finish(table, argc, argv);
}
