// The Digital Logic Core (Section 2 of the paper).
//
// One million-gate CMOS FPGA (XC2V1000-class) with ~200 general-purpose
// I/O, each capable of 800 Mbps but run at 300-400 Mbps for design margin;
// a USB microcontroller for PC communication; FLASH configuration memory
// programmed over IEEE 1149.1; and state machines + LFSRs that synthesize
// test patterns in real time. Its moderate-speed lanes feed PECL muxes
// (src/pecl) that serialize them to multi-Gbps; the model generates the
// serial stream once and models the lanes by their rate limit
// (check_lane_rate) and per-bit timing (SerializerTree::skew_for_bit).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "digital/bitstream.hpp"
#include "digital/flash.hpp"
#include "digital/lfsr.hpp"
#include "digital/pattern.hpp"
#include "digital/registers.hpp"
#include "digital/usb.hpp"
#include "util/bitvec.hpp"
#include "util/units.hpp"

namespace mgt::dig {

/// Hardware capabilities of the DLC: the XC2V1000-class datasheet.
struct DlcSpec {
  static constexpr std::size_t kIoCount = 200;  // general-purpose signals
  static constexpr double kIoMaxMbps = 800.0;   // absolute per-I/O limit
  static constexpr double kIoMarginMbps = 400.0;  // used in practice (Sec 2)
  static constexpr std::size_t kGateBudget = 1'000'000;
  static constexpr std::size_t kBitstreamMaxBytes = 512 * 1024;
  static constexpr std::size_t kPatternDepthBits = 64 * 1024;
  static constexpr std::size_t kMaxLanes = 32;  // widest serializer group
};

/// Pattern-source mode selected through the control register.
enum class DlcMode { Prbs, Pattern };

class Dlc {
public:
  Dlc();

  // -- Configuration ------------------------------------------------------

  /// Loads a personalization directly (bench/bring-up path).
  void configure(const Bitstream& bitstream);

  /// Power-up path: reads the image the FLASH holds at `addr` (length
  /// `image_len`), CRC-checks it, and configures. Throws mgt::Error on a
  /// corrupted image — an unconfigured FPGA stays idle.
  void boot_from_flash(const FlashMemory& flash, std::size_t addr,
                       std::size_t image_len);

  [[nodiscard]] bool configured() const { return configured_; }
  [[nodiscard]] const std::string& design_name() const { return design_name_; }
  [[nodiscard]] static constexpr DlcSpec spec() { return {}; }

  // -- Control plane ------------------------------------------------------

  [[nodiscard]] RegisterFile& regs() { return regs_; }
  [[nodiscard]] const RegisterFile& regs() const { return regs_; }

  /// Handler implementing the vendor register protocol for a UsbDevice.
  [[nodiscard]] UsbDevice::ControlHandler usb_handler();

  /// Bulk OUT handler for pattern uploads, the only way a pattern reaches
  /// the pattern memory (install it on kPatternEndpoint; upload_pattern is
  /// the PC side). Payload layout: [channel u32 | length_bits u32 | pattern
  /// words u32...], little-endian, pattern bit i at bit i % 32 of word
  /// i / 32. The upload replaces the channel's whole bank.
  [[nodiscard]] UsbDevice::BulkHandler usb_bulk_pattern_handler();

  // -- Test synthesis ------------------------------------------------------

  [[nodiscard]] DlcMode mode() const;
  [[nodiscard]] std::size_t lane_count() const;
  [[nodiscard]] unsigned prbs_order() const;
  [[nodiscard]] std::uint64_t seed() const;
  [[nodiscard]] std::uint32_t status() const;

  /// Verifies that `serial_rate` split over the configured lanes is within
  /// the absolute per-I/O capability; throws if the FPGA cannot keep up.
  /// Returns the per-lane rate.
  GbitsPerSec check_lane_rate(GbitsPerSec serial_rate) const;

  /// True when the per-lane rate also respects the 300-400 Mbps design
  /// margin the paper runs at (Section 2); rates between the margin and
  /// the absolute limit work but eat into timing slack.
  [[nodiscard]] bool within_margin(GbitsPerSec serial_rate) const;

  /// The serial sequence the serializer emits (the k:1 interleave of the
  /// lanes): PRBS from the seeded LFSR, or the looped pattern memory.
  /// Deterministic per configuration. Lanes are not materialised; the
  /// serializer's lane_for_bit/skew_for_bit model them.
  [[nodiscard]] BitVector expected_serial(std::size_t n_bits) const;

  // -- Capture memory -------------------------------------------------------
  // The sampling circuit deposits its captured bits here; the PC reads
  // them back through kCapCount/kCapAddr/kCapData over USB, so the
  // mini-tester truly needs nothing but power, clock and USB (Section 4).

  /// Hardware-side: stores a capture (overwrites the previous one).
  void store_capture(const BitVector& bits);

  /// Bus-side view used by the register hooks; also handy for tests.
  [[nodiscard]] const BitVector& capture() const { return capture_; }

private:
  void define_registers();

  /// One per-channel pattern bank (the FPGA dedicates BRAM per channel; a
  /// bulk upload names its bank, kChannelSel picks the one that plays).
  struct PatternBank {
    std::vector<std::uint32_t> words;
    std::uint32_t length_bits = 0;
  };
  [[nodiscard]] const PatternBank& current_bank() const;

  RegisterFile regs_;
  bool configured_ = false;
  std::string design_name_;
  std::map<std::uint32_t, PatternBank> banks_;
  BitVector capture_;
  std::uint32_t capture_addr_ = 0;
};

/// Bulk OUT endpoint the DLC's pattern handler listens on.
inline constexpr std::uint8_t kPatternEndpoint = 1;

/// PC-side helper: reads the whole capture memory back over the bus
/// (USB host or direct registers) and reassembles the bit sequence.
BitVector read_capture(UsbHost& host);

/// PC-side helper: uploads `bits` into pattern bank `channel` in one bulk
/// transfer on kPatternEndpoint (packed 32 bits per word, LSB first).
void upload_pattern(UsbHost& host, std::uint32_t channel,
                    const BitVector& bits);

}  // namespace mgt::dig
