// IEEE 1149.1 (JTAG) test access port.
//
// The DLC's FLASH is programmed from the PC through a boundary-scan
// interface (Fig 2: "MultiLink adaptor" + "IEEE 1149.1"). This is a full
// 16-state TAP controller with IDCODE, BYPASS, SAMPLE/EXTEST boundary
// registers and vendor data registers that stream bytes into the FLASH.
// Every data register is at most 64 bits, so the shift register is one
// word plus its captured length (DESIGN §4 "The boot at word speed").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "digital/flash.hpp"

namespace mgt::dig {

/// The 16 TAP controller states of IEEE 1149.1.
enum class TapState : std::uint8_t {
  TestLogicReset,
  RunTestIdle,
  SelectDrScan,
  CaptureDr,
  ShiftDr,
  Exit1Dr,
  PauseDr,
  Exit2Dr,
  UpdateDr,
  SelectIrScan,
  CaptureIr,
  ShiftIr,
  Exit1Ir,
  PauseIr,
  Exit2Ir,
  UpdateIr,
};

/// Next-state function of the TAP state machine for a TMS value.
TapState tap_next_state(TapState state, bool tms);

/// Printable state name (for diagnostics and tests).
std::string tap_state_name(TapState state);

/// TAP instructions implemented by the DLC device.
namespace tap_ins {
inline constexpr std::uint8_t kExtest = 0x00;
inline constexpr std::uint8_t kIdcode = 0x01;
inline constexpr std::uint8_t kSample = 0x02;
inline constexpr std::uint8_t kFlashAddr = 0x10;   // 32-bit address DR
inline constexpr std::uint8_t kFlashData = 0x11;   // 8-bit data DR, auto-inc
inline constexpr std::uint8_t kFlashErase = 0x12;  // 32-bit sector DR
inline constexpr std::uint8_t kBypass = 0xFF;
}  // namespace tap_ins

/// The DLC-side TAP device: state machine + IR + data registers. The
/// selected data register is one word: Capture-DR loads it (bit i = cell
/// i), Shift-DR moves bit 0 to TDO and TDI into the top cell, and Update-DR
/// reads it back as an integer.
class TapDevice {
public:
  /// Longest data register a scan can select (the word width).
  static constexpr std::size_t kMaxDrLength = 64;

  /// `flash` may be null if flash instructions are unused; `boundary_length`
  /// is the number of boundary-scan cells (one per pin), at most
  /// kMaxDrLength. A zero-length boundary register shifts nothing.
  TapDevice(std::uint32_t idcode, FlashMemory* flash,
            std::size_t boundary_length = 16);

  /// One TCK cycle with the given TMS/TDI; returns TDO (value shifted out).
  bool clock(bool tms, bool tdi);

  [[nodiscard]] TapState state() const { return state_; }
  [[nodiscard]] std::uint8_t instruction() const { return ir_; }

  /// Pin values sampled by SAMPLE (set by the surrounding model).
  void set_pins(const std::vector<bool>& pins);
  /// Pin values driven by EXTEST's last UpdateDR.
  [[nodiscard]] const std::vector<bool>& driven_pins() const {
    return driven_pins_;
  }

  static constexpr std::size_t kIrLength = 8;

private:
  void capture_dr();
  void update_dr();

  TapState state_ = TapState::TestLogicReset;
  std::uint8_t ir_ = tap_ins::kIdcode;
  std::uint32_t idcode_;
  FlashMemory* flash_;
  std::uint32_t flash_addr_ = 0;
  std::uint64_t pins_ = 0;  // bit i = boundary cell i
  std::vector<bool> driven_pins_;
  // Shift registers (LSB-first shifting: TDO from bit 0, TDI into the top).
  // A captured DR value is below 2^dr_length_, and each shift keeps it so.
  std::uint64_t ir_shift_ = 0;
  std::uint64_t dr_shift_ = 0;
  std::size_t dr_length_ = 0;
};

/// Host-side driver: wiggles TMS/TDI to navigate the TAP and run scans,
/// exactly as the PC-attached MultiLink adaptor does.
class JtagHost {
public:
  explicit JtagHost(TapDevice& device) : device_(device) { reset(); }

  /// Five TMS=1 clocks: synchronous reset into Test-Logic-Reset, then one
  /// TMS=0 clock into Run-Test/Idle.
  void reset();

  /// Loads an instruction (kIrLength bits, LSB first); ends in Run-Test/Idle.
  void shift_ir(std::uint8_t instruction);

  /// Shifts the low `length` bits of `bits` (1..64, LSB first) through the
  /// selected DR, one TCK each; returns the bits shifted out, bit i the
  /// TDO of the i-th shift; ends in Run-Test/Idle.
  std::uint64_t shift_dr(std::uint64_t bits, std::size_t length);

  /// Convenience scans.
  std::uint32_t read_idcode();
  void write_flash_address(std::uint32_t addr);
  void program_flash_bytes(const std::vector<std::uint8_t>& bytes);
  std::vector<std::uint8_t> read_flash_bytes(std::uint32_t addr,
                                             std::size_t len);
  void erase_flash_sector(std::uint32_t sector);

  /// Programs a whole image: erases covered sectors, streams the bytes,
  /// reads back and verifies. Throws on verify mismatch.
  void program_flash_image(std::uint32_t addr,
                           const std::vector<std::uint8_t>& image,
                           std::size_t sector_size);

  [[nodiscard]] std::size_t tck_cycles() const { return tck_cycles_; }

private:
  bool clock(bool tms, bool tdi);

  TapDevice& device_;
  std::size_t tck_cycles_ = 0;
};

}  // namespace mgt::dig
