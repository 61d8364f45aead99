// TestSystem: the paper's primary contribution as a single composable
// object.
//
// A TestSystem is a self-contained programmable tester (a "test support
// processor" grown into a miniature tester, Section 1): an FPGA Digital
// Logic Core sequenced over USB, an RF clock reference, a PECL serializer
// tree, and a programmable output stage. It produces multi-Gbps stimulus
// whose analog character (jitter, rise time, levels) reflects every
// component in the chain, and offers the scope-style measurements the
// paper reports.
//
// Typical use:
//
//   auto sys = core::TestSystem(core::presets::optical_testbed(), seed);
//   sys.program_prbs(7, 0xACE1);
//   sys.start();
//   auto eye = sys.measure_eye(20'000);   // Fig 7: jitter, UI opening
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/eye.hpp"
#include "analysis/risefall.hpp"
#include "analysis/timing.hpp"
#include "digital/dlc.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "digital/flash.hpp"
#include "digital/usb.hpp"
#include "pecl/buffer.hpp"
#include "pecl/clocksource.hpp"
#include "pecl/mux.hpp"
#include "signal/channel.hpp"
#include "util/rng.hpp"

namespace mgt::core {

/// Everything that defines one stimulus channel of a test system.
struct ChannelConfig {
  GbitsPerSec rate{2.5};
  pecl::SerializerTree::Config serializer = pecl::SerializerTree::testbed_8to1();
  pecl::OutputBuffer::Config buffer{};
  pecl::ClockSource::Config clock{};
  sig::Channel::Config hookup = sig::Channel::ideal().config();
  /// Name of the FPGA personalization loaded at boot.
  std::string design_name = "mgt-stimulus";
  /// Scheduled faults; component slices "serializer" and "clock" are wired
  /// at construction. An empty plan (the default) changes nothing.
  fault::FaultPlan faults{};
};

/// One generated stimulus: edges at the measurement point plus everything
/// needed to render and interpret them.
struct Stimulus {
  sig::EdgeStream edges;
  sig::FilterChain chain;     // buffer + hookup bandwidth
  sig::PeclLevels levels;
  BitVector bits;             // the serial data the edges carry
  Picoseconds t0{0.0};        // time of the bit-0 boundary at the output
  Picoseconds ui{400.0};

  /// Nominal bit-boundary times t0 + k*ui for k in [0, n].
  [[nodiscard]] std::vector<Picoseconds> boundary_grid(std::size_t n) const;
};

/// Acquisition options shared by the scope-style measurements.
struct EyeOptions {
  std::size_t warmup_bits = 16;  // settle the bandwidth chain
  std::size_t time_bins = 128;
  std::size_t volt_bins = 64;
  Picoseconds sample_step{0.5};
};

class TestSystem {
public:
  TestSystem(ChannelConfig config, std::uint64_t seed);

  // -- Subsystem access ---------------------------------------------------
  [[nodiscard]] dig::Dlc& dlc() { return dlc_; }
  [[nodiscard]] dig::UsbHost& usb() { return usb_host_; }
  [[nodiscard]] pecl::OutputBuffer& buffer() { return buffer_; }
  [[nodiscard]] pecl::ClockSource& clock() { return clock_; }
  [[nodiscard]] const ChannelConfig& config() const { return config_; }

  // -- Programming (all traffic goes through the USB protocol model) ------
  void program_prbs(unsigned order, std::uint64_t seed);
  void program_pattern(const BitVector& pattern);
  void start();
  void stop();

  // -- Stimulus -----------------------------------------------------------

  /// Serializes n_bits through the full chain. Requires start().
  Stimulus generate(std::size_t n_bits);

  // -- Health -------------------------------------------------------------

  /// Runs a loopback check on every block (USB register file, DLC capture
  /// path, RF clock, serializer, output buffer, hookup) and reports
  /// per-component status. Diagnostic stimulus consumes serializer/clock
  /// RNG draws, like a real self-test cycle perturbs the hardware state;
  /// run it before, not between, golden acquisitions.
  [[nodiscard]] fault::HealthReport self_test();

  // -- Scope-style measurements (each generates a fresh acquisition) ------

  /// PRBS/pattern eye over n_bits (Figs 7, 8, 16, 17, 19).
  ana::EyeMetrics measure_eye(std::size_t n_bits, EyeOptions options = {});

  /// Eye diagram object for rendering (examples, docs).
  ana::EyeDiagram acquire_eye(std::size_t n_bits, EyeOptions options = {});

  /// 20-80 % rise/fall over n_bits of the current pattern (Fig 6).
  struct RiseFall {
    Picoseconds rise_mean{0.0};
    Picoseconds rise_min{0.0};
    Picoseconds rise_max{0.0};
    Picoseconds fall_mean{0.0};
    Picoseconds fall_min{0.0};
    Picoseconds fall_max{0.0};
    std::size_t rise_count = 0;
    std::size_t fall_count = 0;
  };
  RiseFall measure_risefall(std::size_t n_bits, EyeOptions options = {});

  /// Single-edge jitter (Fig 9): repeats an isolated falling edge sourced
  /// from one fixed mux path so deterministic skew and ISI repeat exactly;
  /// what remains is the chain's random jitter.
  ana::CrossoverJitter measure_single_edge_jitter(std::size_t n_edges,
                                                  bool rising = false);

  /// Settled amplitude levels of the current pattern (Figs 10, 11, 18).
  struct Amplitude {
    Millivolts settled_high{0.0};
    Millivolts settled_low{0.0};
    Millivolts peak_to_peak{0.0};
  };
  Amplitude measure_amplitude(std::size_t n_bits, EyeOptions options = {});

private:
  /// Render helper: runs `sinks` over the stimulus window.
  void render_stimulus(const Stimulus& stimulus, std::size_t n_bits,
                       const EyeOptions& options,
                       const std::vector<sig::WaveformSink*>& sinks);

  ChannelConfig config_;
  Rng rng_;
  dig::FlashMemory flash_;
  dig::Dlc dlc_;
  dig::UsbDevice usb_device_;
  dig::UsbHost usb_host_;
  pecl::ClockSource clock_;
  pecl::SerializerTree serializer_;
  pecl::OutputBuffer buffer_;
  sig::Channel hookup_;
};

}  // namespace mgt::core
