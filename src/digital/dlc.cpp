#include "digital/dlc.hpp"

#include "util/error.hpp"

namespace mgt::dig {

Dlc::Dlc() { define_registers(); }

void Dlc::define_registers() {
  regs_.define_ro(reg::kId, reg::kIdValue);
  regs_.define(reg::kCtrl);
  regs_.define(reg::kStatus, reg::kStatusIdle);
  regs_.define(reg::kPrbsOrder, 7);
  regs_.define(reg::kLaneCount, 8);
  regs_.define(reg::kLaneRateMbps, 312);
  regs_.define(reg::kSeedLo, 0xFFFFFFFFu);
  regs_.define(reg::kSeedHi, 0xFFFFFFFFu);
  regs_.define(reg::kChannelSel, 0);
  regs_.define(reg::kScratch, 0);

  regs_.on_write(reg::kCtrl, [this](std::uint16_t, std::uint32_t value) {
    if (value & reg::kCtrlStart) {
      MGT_CHECK(configured_, "cannot start an unconfigured DLC");
      regs_.poke(reg::kStatus, reg::kStatusRunning);
    }
    if (value & reg::kCtrlStop) {
      regs_.poke(reg::kStatus, reg::kStatusIdle);
    }
  });

  regs_.define_ro(reg::kCapCount, 0);
  regs_.define(reg::kCapAddr, 0);
  regs_.define_ro(reg::kCapData, 0);
  regs_.on_write(reg::kCapAddr, [this](std::uint16_t, std::uint32_t value) {
    capture_addr_ = value;
  });
  regs_.on_read(reg::kCapData, [this](std::uint16_t) {
    std::uint32_t word = 0;
    for (std::size_t b = 0; b < 32; ++b) {
      const std::size_t idx = static_cast<std::size_t>(capture_addr_) * 32 + b;
      if (idx < capture_.size() && capture_.get(idx)) {
        word |= 1u << b;
      }
    }
    ++capture_addr_;  // auto-increment for streaming readout
    return word;
  });
}

const Dlc::PatternBank& Dlc::current_bank() const {
  const auto it = banks_.find(regs_.read(reg::kChannelSel));
  MGT_CHECK(it != banks_.end(), "no pattern uploaded for selected channel");
  return it->second;
}

void Dlc::configure(const Bitstream& bitstream) {
  MGT_CHECK(bitstream.payload.size() <= DlcSpec::kBitstreamMaxBytes,
            "bitstream exceeds FPGA configuration storage");
  configured_ = true;
  design_name_ = bitstream.design_name;
}

void Dlc::boot_from_flash(const FlashMemory& flash, std::size_t addr,
                          std::size_t image_len) {
  const auto image = flash.read_image(addr, image_len);
  configure(Bitstream::deserialize(image));
}

UsbDevice::ControlHandler Dlc::usb_handler() {
  return [this](const std::vector<std::uint8_t>& request)
             -> std::vector<std::uint8_t> {
    if (request.empty()) {
      throw Error("empty USB request");
    }
    const std::uint8_t op = request[0];
    if (op == usbreq::kWriteRegister) {
      MGT_CHECK(request.size() == 7, "malformed register write");
      const auto addr = static_cast<std::uint16_t>(request[1] | request[2] << 8);
      const std::uint32_t value = static_cast<std::uint32_t>(request[3]) |
                                  static_cast<std::uint32_t>(request[4]) << 8 |
                                  static_cast<std::uint32_t>(request[5]) << 16 |
                                  static_cast<std::uint32_t>(request[6]) << 24;
      regs_.write(addr, value);
      return {};
    }
    if (op == usbreq::kReadRegister) {
      MGT_CHECK(request.size() == 3, "malformed register read");
      const auto addr = static_cast<std::uint16_t>(request[1] | request[2] << 8);
      const std::uint32_t value = regs_.read(addr);
      return {static_cast<std::uint8_t>(value & 0xFF),
              static_cast<std::uint8_t>((value >> 8) & 0xFF),
              static_cast<std::uint8_t>((value >> 16) & 0xFF),
              static_cast<std::uint8_t>((value >> 24) & 0xFF)};
    }
    throw Error("unknown USB vendor request");
  };
}

UsbDevice::BulkHandler Dlc::usb_bulk_pattern_handler() {
  return [this](const std::vector<std::uint8_t>& payload) {
    if (payload.size() < 8 || payload.size() % 4 != 0) {
      throw Error("malformed bulk pattern upload");
    }
    auto word_at = [&](std::size_t i) {
      return static_cast<std::uint32_t>(payload[i]) |
             static_cast<std::uint32_t>(payload[i + 1]) << 8 |
             static_cast<std::uint32_t>(payload[i + 2]) << 16 |
             static_cast<std::uint32_t>(payload[i + 3]) << 24;
    };
    const std::uint32_t channel = word_at(0);
    const std::uint32_t length_bits = word_at(4);
    const std::size_t n_words = payload.size() / 4 - 2;
    MGT_CHECK(length_bits > 0 && length_bits <= n_words * 32,
              "bulk pattern length inconsistent with payload");
    MGT_CHECK(length_bits <= DlcSpec::kPatternDepthBits,
              "bulk pattern exceeds pattern-memory depth");
    PatternBank& bank = banks_[channel];
    bank.words.clear();
    bank.words.reserve(n_words);
    for (std::size_t w = 0; w < n_words; ++w) {
      bank.words.push_back(word_at(8 + w * 4));
    }
    bank.length_bits = length_bits;
  };
}

DlcMode Dlc::mode() const {
  return (regs_.read(reg::kCtrl) & reg::kCtrlModePattern) ? DlcMode::Pattern
                                                          : DlcMode::Prbs;
}

std::size_t Dlc::lane_count() const {
  const std::uint32_t lanes = regs_.read(reg::kLaneCount);
  MGT_CHECK(lanes >= 1 && lanes <= DlcSpec::kMaxLanes,
            "lane count outside hardware range");
  return lanes;
}

unsigned Dlc::prbs_order() const { return regs_.read(reg::kPrbsOrder); }

std::uint64_t Dlc::seed() const {
  return static_cast<std::uint64_t>(regs_.read(reg::kSeedLo)) |
         static_cast<std::uint64_t>(regs_.read(reg::kSeedHi)) << 32;
}

std::uint32_t Dlc::status() const { return regs_.read(reg::kStatus); }

GbitsPerSec Dlc::check_lane_rate(GbitsPerSec serial_rate) const {
  const auto lanes = static_cast<double>(lane_count());
  const GbitsPerSec lane_rate{serial_rate.gbps() / lanes};
  if (lane_rate.mbps() > DlcSpec::kIoMaxMbps) {
    throw Error("per-lane rate " + std::to_string(lane_rate.mbps()) +
                " Mbps exceeds the DLC I/O capability of " +
                std::to_string(DlcSpec::kIoMaxMbps) +
                " Mbps: widen the serializer");
  }
  return lane_rate;
}

bool Dlc::within_margin(GbitsPerSec serial_rate) const {
  return check_lane_rate(serial_rate).mbps() <= DlcSpec::kIoMarginMbps;
}

BitVector Dlc::expected_serial(std::size_t n_bits) const {
  MGT_CHECK(configured_, "DLC is not configured");
  if (mode() == DlcMode::Prbs) {
    Lfsr lfsr = Lfsr::prbs(prbs_order(), seed());
    return lfsr.generate(n_bits);
  }
  const PatternBank& bank = current_bank();
  const std::uint32_t len = bank.length_bits;
  MGT_CHECK(len > 0, "pattern mode selected with zero-length pattern");
  MGT_CHECK(static_cast<std::size_t>(len) <= bank.words.size() * 32,
            "pattern length exceeds uploaded data");
  BitVector out(n_bits);
  for (std::size_t i = 0; i < n_bits; ++i) {
    const std::size_t p = i % len;
    out.set(i, (bank.words[p / 32] >> (p % 32)) & 1u);
  }
  return out;
}

void Dlc::store_capture(const BitVector& bits) {
  MGT_CHECK(bits.size() <= DlcSpec::kPatternDepthBits,
            "capture exceeds capture-memory depth");
  capture_ = bits;
  capture_addr_ = 0;
  regs_.poke(reg::kCapCount, static_cast<std::uint32_t>(bits.size()));
}

BitVector read_capture(UsbHost& host) {
  const std::uint32_t count = host.read_register(reg::kCapCount);
  host.write_register(reg::kCapAddr, 0);
  BitVector out(count);
  for (std::uint32_t w = 0; w * 32 < count; ++w) {
    const std::uint32_t word = host.read_register(reg::kCapData);
    for (std::uint32_t b = 0; b < 32 && w * 32 + b < count; ++b) {
      out.set(w * 32 + b, (word >> b) & 1u);
    }
  }
  return out;
}

void upload_pattern(UsbHost& host, std::uint32_t channel,
                    const BitVector& bits) {
  std::vector<std::uint8_t> payload;
  payload.reserve(8 + (bits.size() + 31) / 32 * 4);
  auto put_u32 = [&](std::uint32_t v) {
    payload.push_back(static_cast<std::uint8_t>(v & 0xFF));
    payload.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    payload.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
    payload.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
  };
  put_u32(channel);
  put_u32(static_cast<std::uint32_t>(bits.size()));
  for (std::size_t w = 0; w * 32 < bits.size(); ++w) {
    std::uint32_t word = 0;
    for (std::size_t b = 0; b < 32 && w * 32 + b < bits.size(); ++b) {
      word |= static_cast<std::uint32_t>(bits.get(w * 32 + b)) << b;
    }
    put_u32(word);
  }
  host.bulk_write(kPatternEndpoint, payload);
}

}  // namespace mgt::dig
