#include "minitester/minitester.hpp"

#include <algorithm>
#include <cmath>

#include "signal/render.hpp"
#include "util/error.hpp"

namespace mgt::minitester {
namespace {

/// Bits skipped at the head of each capture (chain settling).
constexpr std::size_t kWarmupBits = 16;

}  // namespace

MiniTester::MiniTester(Config config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      system_(config.channel, seed ^ 0x31A17E57E5ull),
      dut_(config.dut),
      strobe_delay_(config.strobe_delay, rng_.fork()),
      sampler_(pecl::PeclSampler::Config{}, rng_.fork()) {
  // Default strobe: mid-UI (center of the ideal eye). Code math comes
  // from the instance's mode-aware step so vernier mode works unchanged.
  const double ui = config_.channel.rate.unit_interval().ps();
  const double step = strobe_delay_.step().ps();
  strobe_delay_.set_code(static_cast<std::size_t>(ui / 2.0 / step));
  // The strobe delay line consumes the "strobe" slice of the channel's
  // fault plan (kDelayDrift walks the sampling point across the eye).
  strobe_delay_.set_faults(config_.channel.faults.component("strobe"));
}

void MiniTester::set_strobe_code(std::size_t code) {
  strobe_delay_.set_code(code);
}

void MiniTester::program_prbs(unsigned order, std::uint64_t seed) {
  system_.program_prbs(order, seed);
}

void MiniTester::program_pattern(const BitVector& pattern) {
  system_.program_pattern(pattern);
}

void MiniTester::start() { system_.start(); }

MiniTester::Path MiniTester::through_dut(std::size_t n_bits) {
  core::Stimulus stim = system_.generate(n_bits);
  Path path;
  path.edges = dut_.respond(stim.edges);
  path.chain = stim.chain;
  const Picoseconds stimulus_group_delay = path.chain.group_delay();
  dut_.contribute(path.chain, stim.levels.midpoint());
  path.levels = stim.levels;
  // Deskew: stim.t0 already accounts for the stimulus chain's group delay;
  // add only what the DUT's leads contribute on top.
  path.t0 = stim.t0 + dut_.loopback_delay() +
            (path.chain.group_delay() - stimulus_group_delay);
  path.ui = stim.ui;
  path.bits = stim.bits;
  return path;
}

ana::BerResult MiniTester::run_loopback(std::size_t n_bits) {
  MGT_CHECK(n_bits > kWarmupBits + 1,
            "need more bits than the warmup consumes");
  Path path = through_dut(n_bits);

  // Strobe placement: the delay line's insertion delay is calibrated out;
  // the programmed code positions the strobe within the unit interval.
  const std::size_t n_capture = n_bits - kWarmupBits - 1;
  const Picoseconds first{
      path.t0.ps() + static_cast<double>(kWarmupBits) * path.ui.ps() +
      strobe_delay_.actual_delay(strobe_delay_.code()).ps() +
      strobe_delay_.fault_drift().ps()};
  const auto strobes =
      pecl::PeclSampler::strobe_schedule(first, path.ui, n_capture);

  const sig::PeclLevels rails = sig::attenuated(path.levels, path.chain.gain());
  sampler_.set_threshold(rails.midpoint());
  const auto capture =
      sampler_.capture(path.edges, path.chain, path.levels, strobes);

  // The capture lands in the DLC's capture memory; the controlling PC can
  // read it back over USB (last_capture_via_usb).
  system_.dlc().store_capture(capture.bits);

  // The programmed delay selects which bit each strobe lands in; alignment
  // search mirrors the pattern-sync a BERT performs.
  const BitVector expected = path.bits.slice(kWarmupBits, n_capture);
  return ana::compare_bits_aligned(capture.bits, expected, 4);
}

std::vector<ana::BathtubPoint> MiniTester::bathtub(std::size_t n_bits,
                                                   std::size_t code_step) {
  MGT_CHECK(code_step >= 1);
  const std::size_t saved_code = strobe_delay_.code();
  const double ui = config_.channel.rate.unit_interval().ps();
  const double step = strobe_delay_.step().ps();
  const auto max_code = static_cast<std::size_t>(std::ceil(ui / step));

  std::vector<ana::BathtubPoint> scan;
  for (std::size_t code = 0; code <= max_code; code += code_step) {
    strobe_delay_.set_code(code);
    const auto ber = run_loopback(n_bits);
    ana::BathtubPoint point;
    point.strobe_offset = Picoseconds{static_cast<double>(code) * step};
    point.ber = ber.ber();
    point.errors = ber.errors;
    point.bits = ber.bits_compared;
    scan.push_back(point);
  }
  strobe_delay_.set_code(saved_code);
  return scan;
}

std::size_t MiniTester::center_strobe(std::size_t n_bits) {
  constexpr std::size_t kCodeStep = 2;
  const auto scan = bathtub(n_bits, kCodeStep);
  // Longest run of minimum-BER points; center the strobe within it.
  double best_ber = 1.0;
  for (const auto& p : scan) {
    best_ber = std::min(best_ber, p.ber);
  }
  std::size_t best_start = 0;
  std::size_t best_len = 0;
  std::size_t run_start = 0;
  std::size_t run_len = 0;
  for (std::size_t i = 0; i < scan.size(); ++i) {
    if (scan[i].ber <= best_ber) {
      if (run_len == 0) {
        run_start = i;
      }
      ++run_len;
      if (run_len > best_len) {
        best_len = run_len;
        best_start = run_start;
      }
    } else {
      run_len = 0;
    }
  }
  // Scan point i was taken at code i * kCodeStep. Dividing its offset by
  // the step instead truncates at sub-ps vernier steps (27 * 0.67 / 0.67
  // gives 26.999...).
  const std::size_t code = (best_start + best_len / 2) * kCodeStep;
  strobe_delay_.set_code(code);
  return code;
}

MiniTester::BistResult MiniTester::run_bist(std::size_t n_bits) {
  MGT_CHECK(n_bits > kWarmupBits + 1,
            "need more bits than the warmup consumes");
  // The DUT's internal flip-flops sample the incoming stream at bit
  // centers; the compacted signature comes back over the low-speed test
  // bus and is compared against the golden signature of the programmed
  // pattern.
  Path path = through_dut(n_bits);
  const std::size_t n = n_bits - kWarmupBits - 1;
  const BitVector expected = path.bits.slice(kWarmupBits, n);

  const sig::PeclLevels rails = sig::attenuated(path.levels, path.chain.gain());
  sampler_.set_threshold(rails.midpoint());
  const Picoseconds first{path.t0.ps() +
                          (static_cast<double>(kWarmupBits) + 0.5) *
                              path.ui.ps()};
  const auto strobes = pecl::PeclSampler::strobe_schedule(first, path.ui, n);
  const BitVector received =
      sampler_.capture(path.edges, path.chain, path.levels, strobes).bits;

  BistResult out;
  out.expected = misr_signature(expected);
  out.actual = misr_signature(received);
  return out;
}

ana::EyeMetrics MiniTester::measure_loopback_eye(std::size_t n_bits) {
  Path path = through_dut(n_bits);
  MGT_CHECK(!path.edges.empty(), "cannot take an eye of a stuck output");
  const sig::PeclLevels rails = sig::attenuated(path.levels, path.chain.gain());
  const double margin = 0.25 * rails.swing().mv();
  ana::EyeDiagram::Config config{
      .ui = path.ui,
      .t_ref = path.t0,
      .v_lo = Millivolts{rails.vol.mv() - margin},
      .v_hi = Millivolts{rails.voh.mv() + margin},
      .threshold = rails.midpoint(),
  };
  ana::EyeDiagram eye(config);
  const Picoseconds t_begin{path.t0.ps() +
                            static_cast<double>(kWarmupBits) *
                                path.ui.ps()};
  const Picoseconds t_end{path.t0.ps() +
                          static_cast<double>(n_bits) * path.ui.ps()};
  sig::render(path.edges, path.chain, sig::RenderConfig{.levels = path.levels},
              t_begin, t_end, {&eye});
  return eye.metrics();
}

}  // namespace mgt::minitester
