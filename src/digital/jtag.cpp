#include "digital/jtag.hpp"

#include "util/error.hpp"

namespace mgt::dig {

TapState tap_next_state(TapState state, bool tms) {
  switch (state) {
    case TapState::TestLogicReset:
      return tms ? TapState::TestLogicReset : TapState::RunTestIdle;
    case TapState::RunTestIdle:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
    case TapState::SelectDrScan:
      return tms ? TapState::SelectIrScan : TapState::CaptureDr;
    case TapState::CaptureDr:
      return tms ? TapState::Exit1Dr : TapState::ShiftDr;
    case TapState::ShiftDr:
      return tms ? TapState::Exit1Dr : TapState::ShiftDr;
    case TapState::Exit1Dr:
      return tms ? TapState::UpdateDr : TapState::PauseDr;
    case TapState::PauseDr:
      return tms ? TapState::Exit2Dr : TapState::PauseDr;
    case TapState::Exit2Dr:
      return tms ? TapState::UpdateDr : TapState::ShiftDr;
    case TapState::UpdateDr:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
    case TapState::SelectIrScan:
      return tms ? TapState::TestLogicReset : TapState::CaptureIr;
    case TapState::CaptureIr:
      return tms ? TapState::Exit1Ir : TapState::ShiftIr;
    case TapState::ShiftIr:
      return tms ? TapState::Exit1Ir : TapState::ShiftIr;
    case TapState::Exit1Ir:
      return tms ? TapState::UpdateIr : TapState::PauseIr;
    case TapState::PauseIr:
      return tms ? TapState::Exit2Ir : TapState::PauseIr;
    case TapState::Exit2Ir:
      return tms ? TapState::UpdateIr : TapState::ShiftIr;
    case TapState::UpdateIr:
      return tms ? TapState::SelectDrScan : TapState::RunTestIdle;
  }
  throw Error("invalid TAP state");
}

std::string tap_state_name(TapState state) {
  switch (state) {
    case TapState::TestLogicReset: return "Test-Logic-Reset";
    case TapState::RunTestIdle: return "Run-Test/Idle";
    case TapState::SelectDrScan: return "Select-DR-Scan";
    case TapState::CaptureDr: return "Capture-DR";
    case TapState::ShiftDr: return "Shift-DR";
    case TapState::Exit1Dr: return "Exit1-DR";
    case TapState::PauseDr: return "Pause-DR";
    case TapState::Exit2Dr: return "Exit2-DR";
    case TapState::UpdateDr: return "Update-DR";
    case TapState::SelectIrScan: return "Select-IR-Scan";
    case TapState::CaptureIr: return "Capture-IR";
    case TapState::ShiftIr: return "Shift-IR";
    case TapState::Exit1Ir: return "Exit1-IR";
    case TapState::PauseIr: return "Pause-IR";
    case TapState::Exit2Ir: return "Exit2-IR";
    case TapState::UpdateIr: return "Update-IR";
  }
  return "?";
}

TapDevice::TapDevice(std::uint32_t idcode, FlashMemory* flash,
                     std::size_t boundary_length)
    : idcode_(idcode), flash_(flash), driven_pins_(boundary_length, false) {
  MGT_CHECK(boundary_length <= kMaxDrLength,
            "boundary register longer than the 64-bit data register");
}

void TapDevice::set_pins(const std::vector<bool>& pins) {
  MGT_CHECK(pins.size() == driven_pins_.size(), "boundary length mismatch");
  pins_ = 0;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    pins_ |= static_cast<std::uint64_t>(pins[i]) << i;
  }
}

void TapDevice::capture_dr() {
  dr_shift_ = 0;  // BYPASS/addr/erase capture zeros
  switch (ir_) {
    case tap_ins::kIdcode:
      dr_length_ = 32;
      dr_shift_ = idcode_;
      break;
    case tap_ins::kSample:
    case tap_ins::kExtest:
      dr_length_ = driven_pins_.size();
      dr_shift_ = pins_;
      break;
    case tap_ins::kFlashAddr:
    case tap_ins::kFlashErase:
      dr_length_ = 32;
      break;
    case tap_ins::kFlashData:
      dr_length_ = 8;
      if (flash_ != nullptr && flash_addr_ < flash_->size()) {
        dr_shift_ = flash_->read(flash_addr_);
      }
      break;
    case tap_ins::kBypass:
    default:
      dr_length_ = 1;  // unknown instructions select BYPASS per the standard
      break;
  }
}

void TapDevice::update_dr() {
  switch (ir_) {
    case tap_ins::kExtest:
      for (std::size_t i = 0; i < dr_length_; ++i) {
        driven_pins_[i] = (dr_shift_ >> i) & 1u;
      }
      break;
    case tap_ins::kFlashAddr:
      flash_addr_ = static_cast<std::uint32_t>(dr_shift_);
      break;
    case tap_ins::kFlashData:
      if (flash_ != nullptr) {
        flash_->program(flash_addr_, static_cast<std::uint8_t>(dr_shift_));
        ++flash_addr_;  // auto-increment for streaming writes
      }
      break;
    case tap_ins::kFlashErase:
      if (flash_ != nullptr) {
        flash_->erase_sector(static_cast<std::size_t>(dr_shift_));
      }
      break;
    default:
      break;
  }
}

bool TapDevice::clock(bool tms, bool tdi) {
  bool tdo = false;
  // TDO reflects the register bit being shifted out during Shift states.
  if (state_ == TapState::ShiftIr) {
    tdo = ir_shift_ & 1u;
    ir_shift_ = (ir_shift_ >> 1) |
                (static_cast<std::uint64_t>(tdi) << (kIrLength - 1));
  } else if (state_ == TapState::ShiftDr && dr_length_ != 0) {
    tdo = dr_shift_ & 1u;
    dr_shift_ = (dr_shift_ >> 1) |
                (static_cast<std::uint64_t>(tdi) << (dr_length_ - 1));
  }

  state_ = tap_next_state(state_, tms);

  switch (state_) {
    case TapState::TestLogicReset:
      ir_ = tap_ins::kIdcode;  // reset selects IDCODE per the standard
      break;
    case TapState::CaptureIr:
      ir_shift_ = 0b01;  // standard mandates LSBs = 01 for fault isolation
      break;
    case TapState::UpdateIr:
      ir_ = static_cast<std::uint8_t>(ir_shift_ & ((1u << kIrLength) - 1));
      break;
    case TapState::CaptureDr:
      capture_dr();
      break;
    case TapState::UpdateDr:
      update_dr();
      break;
    default:
      break;
  }
  return tdo;
}

void JtagHost::reset() {
  for (int i = 0; i < 5; ++i) {
    clock(true, false);
  }
  clock(false, false);  // -> Run-Test/Idle
  MGT_CHECK(device_.state() == TapState::RunTestIdle);
}

bool JtagHost::clock(bool tms, bool tdi) {
  ++tck_cycles_;
  return device_.clock(tms, tdi);
}

void JtagHost::shift_ir(std::uint8_t instruction) {
  // RTI -> Select-DR -> Select-IR -> Capture-IR -> Shift-IR
  clock(true, false);
  clock(true, false);
  clock(false, false);
  clock(false, false);
  for (std::size_t i = 0; i < TapDevice::kIrLength; ++i) {
    const bool last = i + 1 == TapDevice::kIrLength;
    clock(last, (instruction >> i) & 1u);  // last bit exits Shift-IR
  }
  clock(true, false);   // Exit1-IR -> Update-IR
  clock(false, false);  // -> Run-Test/Idle
  MGT_CHECK(device_.state() == TapState::RunTestIdle);
}

std::uint64_t JtagHost::shift_dr(std::uint64_t bits, std::size_t length) {
  MGT_CHECK(length >= 1 && length <= TapDevice::kMaxDrLength);
  // RTI -> Select-DR -> Capture-DR -> Shift-DR
  clock(true, false);
  clock(false, false);
  clock(false, false);
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < length; ++i) {
    const bool last = i + 1 == length;
    out |= static_cast<std::uint64_t>(clock(last, (bits >> i) & 1u)) << i;
  }
  clock(true, false);   // Exit1-DR -> Update-DR
  clock(false, false);  // -> Run-Test/Idle
  MGT_CHECK(device_.state() == TapState::RunTestIdle);
  return out;
}

std::uint32_t JtagHost::read_idcode() {
  shift_ir(tap_ins::kIdcode);
  return static_cast<std::uint32_t>(shift_dr(0, 32));
}

void JtagHost::write_flash_address(std::uint32_t addr) {
  shift_ir(tap_ins::kFlashAddr);
  shift_dr(addr, 32);
}

void JtagHost::program_flash_bytes(const std::vector<std::uint8_t>& bytes) {
  shift_ir(tap_ins::kFlashData);
  for (std::uint8_t byte : bytes) {
    shift_dr(byte, 8);
  }
}

std::vector<std::uint8_t> JtagHost::read_flash_bytes(std::uint32_t addr,
                                                     std::size_t len) {
  std::vector<std::uint8_t> out;
  out.reserve(len);
  for (std::size_t k = 0; k < len; ++k) {
    // Each Capture-DR loads flash[addr]; shifting all-ones programs nothing
    // back because Update-DR would program 0xFF (no bit cleared).
    write_flash_address(addr + static_cast<std::uint32_t>(k));
    shift_ir(tap_ins::kFlashData);
    out.push_back(static_cast<std::uint8_t>(shift_dr(0xFF, 8)));
  }
  return out;
}

void JtagHost::erase_flash_sector(std::uint32_t sector) {
  shift_ir(tap_ins::kFlashErase);
  shift_dr(sector, 32);
}

void JtagHost::program_flash_image(std::uint32_t addr,
                                   const std::vector<std::uint8_t>& image,
                                   std::size_t sector_size) {
  MGT_CHECK(!image.empty());
  const std::uint32_t first = addr / static_cast<std::uint32_t>(sector_size);
  const std::uint32_t last = (addr + static_cast<std::uint32_t>(image.size()) - 1) /
                             static_cast<std::uint32_t>(sector_size);
  for (std::uint32_t s = first; s <= last; ++s) {
    erase_flash_sector(s);
  }
  write_flash_address(addr);
  program_flash_bytes(image);
  const auto readback = read_flash_bytes(addr, image.size());
  if (readback != image) {
    throw Error("flash program verify failed");
  }
}

}  // namespace mgt::dig
