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
#include "pecl/delayline.hpp"
#include "pecl/mux.hpp"
#include "pecl/sampler.hpp"
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

/// Bits at the head of every acquisition that only settle the bandwidth
/// chain: no strobe, eye sample or crossing is taken before bit 16.
inline constexpr std::size_t kWarmupBits = 16;

/// Acquisition options shared by the scope-style measurements.
struct EyeOptions {
  std::size_t warmup_bits = kWarmupBits;
  std::size_t time_bins = 128;
  std::size_t volt_bins = 64;
  Picoseconds sample_step{0.5};
};

/// One generated stimulus: edges at the measurement point plus everything
/// needed to render and interpret them. Its members below frame every
/// acquisition: where it starts, what it compares against, the levels it
/// decides at and where the strobes fall.
struct Stimulus {
  sig::EdgeStream edges;
  sig::FilterChain chain;     // buffer + hookup bandwidth
  sig::PeclLevels levels;
  BitVector bits;             // the serial data the edges carry
  Picoseconds t0{0.0};        // time of the bit-0 boundary at the output
  Picoseconds ui{400.0};

  /// Nominal time t0 + k*ui of bit boundary k.
  [[nodiscard]] Picoseconds bit_time(std::size_t k) const;
  /// Scope-style acquisition window over the generated bits:
  /// [bit_time(options.warmup_bits), bit_time(n)), rendered at the output
  /// levels on options.sample_step.
  struct Window {
    Picoseconds begin{0.0};
    Picoseconds end{0.0};
    sig::RenderConfig render;
  };
  [[nodiscard]] Window window(const EyeOptions& options = {}) const;
  /// Nominal bit-boundary times t0 + k*ui for k in [0, n].
  [[nodiscard]] std::vector<Picoseconds> boundary_grid(std::size_t n) const;

  /// The output rails as the receiver sees them: scaled by the chain's DC
  /// gain. Their midpoint is the receiver's decision threshold.
  [[nodiscard]] sig::PeclLevels rails() const;
  /// Eye frame on the rails: rails +- a quarter swing, the threshold at the
  /// rails' midpoint, the grid on t0.
  [[nodiscard]] ana::EyeDiagram::Config eye_frame(
      const EyeOptions& options = {}) const;
  /// Threshold crossings at the rails' midpoint over
  /// [bit_time(kWarmupBits), bit_time(n - 1)) for n generated bits.
  [[nodiscard]] std::vector<sig::Crossing> crossings() const;

  /// Strobes a capture takes: one per bit after the warm-up except the
  /// last, which a strobe delayed by up to a UI would run past.
  [[nodiscard]] std::size_t strobe_count() const;
  /// The bits those strobes should return.
  [[nodiscard]] BitVector expected() const;
  /// First strobe through `delay` at `code`: the warm-up boundary plus the
  /// programmed delay plus the line's fault drift, summed in that order.
  [[nodiscard]] Picoseconds first_strobe(const pecl::ProgrammableDelay& delay,
                                         std::size_t code) const;
  /// Strobed capture: strobe_count() strobes one UI apart from `first`,
  /// each decided at the rails' midpoint.
  [[nodiscard]] pecl::PeclSampler::Capture capture(pecl::PeclSampler& sampler,
                                                   Picoseconds first) const;
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
