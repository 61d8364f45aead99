#include "minitester/dut.hpp"

#include "util/error.hpp"

namespace mgt::minitester {

std::uint16_t misr_signature(const BitVector& bits, std::uint16_t seed) {
  std::uint16_t state = seed;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool fb = ((state >> 15) & 1u) != bits.get(i);
    state = static_cast<std::uint16_t>(state << 1);
    if (fb) {
      state ^= 0x100B;  // x^16 + x^12 + x^3 + x + 1 (primitive)
    }
  }
  return state;
}

WlpDut::WlpDut(Config config) : config_(config) {}

sig::EdgeStream WlpDut::respond(const sig::EdgeStream& stimulus) const {
  switch (config_.defect) {
    case Defect::StuckLow:
      return sig::EdgeStream{false};
    case Defect::StuckHigh:
      return sig::EdgeStream{true};
    default:
      break;
  }
  return stimulus.shifted(loopback_delay());
}

void WlpDut::contribute(sig::FilterChain& chain, Millivolts midpoint) const {
  interposer_.contribute(chain, midpoint);
  lead_.contribute(chain, midpoint);  // in
  lead_.contribute(chain, midpoint);  // out
  switch (config_.defect) {
    case Defect::SlowLead:
      // Cracked lead: a hefty extra pole.
      chain.add_pole_rise_2080(Picoseconds{220.0});
      break;
    case Defect::WeakDrive:
      chain.set_gain(0.35 * chain.gain(), midpoint);
      break;
    default:
      break;
  }
}

Picoseconds WlpDut::loopback_delay() const {
  const double lead = lead_.config().delay.ps();
  return Picoseconds{interposer_.config().delay.ps() + lead + lead +
                     kInternalDelay.ps()};
}

std::uint16_t WlpDut::bist_signature(const BitVector& received) const {
  switch (config_.defect) {
    case Defect::StuckLow:
      return misr_signature(BitVector(received.size(), false));
    case Defect::StuckHigh:
      return misr_signature(BitVector(received.size(), true));
    default:
      return misr_signature(received);
  }
}

}  // namespace mgt::minitester
