// The self-contained miniature tester (Section 4, Figs 14-15).
//
// Sits on the probe card; needs only DC power, one RF clock, and USB. The
// stimulus side is a full TestSystem (DLC + 2x8:1 + 2:1 PECL mux tree +
// output buffer, up to 5 Gbps with 10 ps edge placement); the capture side
// is a PECL sampling flip-flop strobed through a programmable delay line
// with 10 ps resolution. Loopback and BIST tests run against a WLP DUT
// model behind compliant-lead channels.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/ber.hpp"
#include "analysis/eye.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "minitester/dut.hpp"
#include "pecl/delayline.hpp"
#include "pecl/sampler.hpp"

namespace mgt::minitester {

class MiniTester {
public:
  struct Config {
    core::ChannelConfig channel = core::presets::minitester();
    /// The paper's stepped delay line by default; set it to
    /// core::presets::strobe_delay(pecl::TimingMode::kVernier) for vernier.
    pecl::ProgrammableDelay::Config strobe_delay =
        core::presets::strobe_delay();
    WlpDut::Config dut{};
  };

  MiniTester(Config config, std::uint64_t seed);

  [[nodiscard]] core::TestSystem& system() { return system_; }
  [[nodiscard]] WlpDut& dut() { return dut_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Programs the capture strobe delay (strobe_delay().step() per code:
  /// 10 ps stepped, sub-ps in vernier mode).
  void set_strobe_code(std::size_t code);
  [[nodiscard]] std::size_t strobe_code() const { return strobe_delay_.code(); }
  [[nodiscard]] const pecl::ProgrammableDelay& strobe_delay() const {
    return strobe_delay_;
  }

  /// Programs the stimulus source (PRBS through the DLC over USB).
  void program_prbs(unsigned order, std::uint64_t seed);
  void program_pattern(const BitVector& pattern);
  void start();

  /// Loopback BER test: stimulus -> DUT -> capture at the current strobe
  /// code -> compare against the expected pattern. The raw capture is
  /// deposited in the DLC capture memory.
  ana::BerResult run_loopback(std::size_t n_bits);

  /// Reads the last loopback capture back through the USB register
  /// protocol, exactly as the controlling PC does.
  BitVector last_capture_via_usb() { return dig::read_capture(system_.usb()); }

  /// Bathtub scan: sweeps the strobe across (just over) one UI in
  /// `code_step` delay codes and records BER at each position.
  std::vector<ana::BathtubPoint> bathtub(std::size_t n_bits,
                                         std::size_t code_step = 2);

  /// Places the strobe at the center of the eye (best position found by a
  /// quick scan); returns the chosen code.
  std::size_t center_strobe(std::size_t n_bits = 640);

  /// BIST production test: the DUT compacts what it receives; the tester
  /// compares the signature against the golden value.
  struct BistResult {
    std::uint16_t expected = 0;
    std::uint16_t actual = 0;
    [[nodiscard]] bool pass() const { return expected == actual; }
  };
  BistResult run_bist(std::size_t n_bits);

  /// Eye of the DUT's returned signal as the sampler sees it
  /// (Figs 16/17/19 are measured at this plane for the mini-tester).
  ana::EyeMetrics measure_loopback_eye(std::size_t n_bits);

private:
  /// The generated stimulus carried through the DUT: its edges, poles and
  /// bit-boundary origin become those at the sampler.
  core::Stimulus through_dut(std::size_t n_bits);

  Config config_;
  Rng rng_;
  core::TestSystem system_;
  WlpDut dut_;
  pecl::ProgrammableDelay strobe_delay_;
  pecl::PeclSampler sampler_;
};

}  // namespace mgt::minitester
