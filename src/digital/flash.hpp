// FLASH configuration memory.
//
// NOR-flash semantics: erased bytes read 0xFF, programming can only clear
// bits (1 -> 0), and setting bits back requires a sector erase. The DLC
// boots its FPGA from this device and is re-targeted by overwriting it
// through the IEEE 1149.1 port (Section 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mgt::dig {

class FlashMemory {
public:
  /// `sectors` sectors of `sector_size` bytes each, initially erased.
  explicit FlashMemory(std::size_t sectors = 64,
                       std::size_t sector_size = 16 * 1024);

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::size_t sector_size() const { return sector_size_; }

  [[nodiscard]] std::uint8_t read(std::size_t addr) const;

  /// Programs one byte: only 1->0 bit transitions take effect (AND
  /// semantics), exactly like real NOR flash. Throws when out of range.
  void program(std::size_t addr, std::uint8_t value);

  /// Erases a sector back to 0xFF and bumps its wear counter.
  void erase_sector(std::size_t sector);

  /// Erase cycles a sector has seen (endurance bookkeeping).
  [[nodiscard]] std::uint32_t wear(std::size_t sector) const;

  /// Convenience: erase affected sectors then program `image` at `addr`.
  void write_image(std::size_t addr, const std::vector<std::uint8_t>& image);

  /// Reads `len` bytes starting at `addr`.
  [[nodiscard]] std::vector<std::uint8_t> read_image(std::size_t addr,
                                                     std::size_t len) const;

private:
  std::size_t sectors_;
  std::size_t sector_size_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint32_t> wear_;
};

}  // namespace mgt::dig
