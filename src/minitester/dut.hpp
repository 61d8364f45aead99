// Wafer-level-packaged DUT model (Section 4, Fig 12).
//
// The device under test sits behind WLP compliant leads and an interposer
// redistribution layer. The mini-tester demonstrates ~5 Gbps signal
// propagation through those lead structures: stimulus enters through one
// lead, loops through an internal buffer, and returns through another.
// The DUT also carries a BIST block (a multiple-input signature register)
// so production test can use few signals per die (Fig 13's parallel-test
// strategy). Defects are injectable to give pass/fail structure.
#pragma once

#include <cstdint>

#include "signal/channel.hpp"
#include "signal/edge.hpp"
#include "signal/filter.hpp"
#include "util/bitvec.hpp"
#include "util/units.hpp"

namespace mgt::minitester {

/// 16-bit multiple-input signature register (x^16 + x^12 + x^3 + x + 1).
/// The DUT compacts the bits it receives into this signature; the tester
/// compares against the golden value.
std::uint16_t misr_signature(const BitVector& bits,
                             std::uint16_t seed = 0xFFFF);

/// Injectable manufacturing defects.
enum class Defect {
  None,
  StuckLow,    // output lead shorted low
  StuckHigh,   // output lead shorted high
  SlowLead,    // cracked/thin compliant lead: extra bandwidth loss
  WeakDrive,   // degraded output buffer: heavy attenuation
};

class WlpDut {
public:
  struct Config {
    Defect defect = Defect::None;
  };

  /// Delay of the on-die loopback buffer between the two leads.
  static constexpr Picoseconds kInternalDelay{180.0};

  explicit WlpDut(Config config);

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Defect defect() const { return config_.defect; }

  /// Edge-domain response: the loopback path's delays applied to the
  /// stimulus. Stuck faults pin the output.
  [[nodiscard]] sig::EdgeStream respond(const sig::EdgeStream& stimulus) const;

  /// Appends the round-trip analog path (interposer + the input and output
  /// compliant leads + defect effects) to a render chain.
  void contribute(sig::FilterChain& chain, Millivolts midpoint) const;

  /// Total nominal propagation delay of the loopback path.
  [[nodiscard]] Picoseconds loopback_delay() const;

  /// On-die BIST: the DUT samples the incoming bits at its internal
  /// flip-flops and compacts them. Stuck faults force the sampled value.
  [[nodiscard]] std::uint16_t bist_signature(const BitVector& received) const;

private:
  Config config_;
  sig::Channel lead_ = sig::Channel::compliant_lead();  // each way
  sig::Channel interposer_ = sig::Channel::interposer_trace();
};

}  // namespace mgt::minitester
