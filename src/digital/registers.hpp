// DLC register file and address map.
//
// The PC controls the DLC over USB by reading and writing 32-bit registers;
// the same map is reachable through JTAG for bring-up. This file defines
// the map and a RegisterFile with read-only / side-effect hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

namespace mgt::dig {

/// DLC register addresses (word addresses on the internal bus).
namespace reg {
inline constexpr std::uint16_t kId = 0x000;          // RO: identification
inline constexpr std::uint16_t kCtrl = 0x001;        // start/stop/mode
inline constexpr std::uint16_t kStatus = 0x002;      // RO: state machine
inline constexpr std::uint16_t kPrbsOrder = 0x003;   // 7/15/23/31
inline constexpr std::uint16_t kLaneCount = 0x004;   // serializer width
inline constexpr std::uint16_t kLaneRateMbps = 0x005;
inline constexpr std::uint16_t kSeedLo = 0x006;
inline constexpr std::uint16_t kSeedHi = 0x007;
inline constexpr std::uint16_t kChannelSel = 0x00B;   // pattern channel
inline constexpr std::uint16_t kCapCount = 0x00C;     // RO: captured bits
inline constexpr std::uint16_t kCapAddr = 0x00D;      // auto-incrementing
inline constexpr std::uint16_t kCapData = 0x00E;      // RO: capture words
inline constexpr std::uint16_t kScratch = 0x00F;

/// kCtrl bit assignments.
inline constexpr std::uint32_t kCtrlStart = 1u << 0;
inline constexpr std::uint32_t kCtrlStop = 1u << 1;
inline constexpr std::uint32_t kCtrlModePattern = 1u << 2;  // 0 = PRBS

/// kStatus values.
inline constexpr std::uint32_t kStatusIdle = 0;
inline constexpr std::uint32_t kStatusRunning = 1;
inline constexpr std::uint32_t kStatusDone = 2;

/// kId read value: "DLC" + architecture revision.
inline constexpr std::uint32_t kIdValue = 0xD1C20050;
}  // namespace reg

/// Sparse 32-bit register file with per-address hooks.
class RegisterFile {
public:
  using WriteHook = std::function<void(std::uint16_t addr, std::uint32_t value)>;
  using ReadHook = std::function<std::uint32_t(std::uint16_t addr)>;

  /// Declares a plain read/write register with a reset value.
  void define(std::uint16_t addr, std::uint32_t reset_value = 0);

  /// Declares a read-only register with a fixed value.
  void define_ro(std::uint16_t addr, std::uint32_t value);

  /// Installs a hook invoked after a write to `addr` commits.
  void on_write(std::uint16_t addr, WriteHook hook);

  /// Installs a hook that overrides reads of `addr`.
  void on_read(std::uint16_t addr, ReadHook hook);

  /// Bus write; throws on undefined or read-only addresses.
  void write(std::uint16_t addr, std::uint32_t value);

  /// Bus read; throws on undefined addresses.
  [[nodiscard]] std::uint32_t read(std::uint16_t addr) const;

  /// Internal (hardware-side) update that bypasses the read-only check.
  void poke(std::uint16_t addr, std::uint32_t value);

  [[nodiscard]] bool defined(std::uint16_t addr) const;

private:
  struct Entry {
    std::uint32_t value = 0;
    bool read_only = false;
    WriteHook write_hook;
    ReadHook read_hook;
  };
  std::map<std::uint16_t, Entry> regs_;
};

}  // namespace mgt::dig
