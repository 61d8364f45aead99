// Unit tests for src/digital: LFSR/PRBS, pattern memory, register file,
// bitstream/FLASH, IEEE 1149.1 TAP, USB protocol, and the DLC.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "digital/bitstream.hpp"
#include "digital/dlc.hpp"
#include "digital/flash.hpp"
#include "digital/jtag.hpp"
#include "digital/lfsr.hpp"
#include "digital/pattern.hpp"
#include "digital/registers.hpp"
#include "digital/usb.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mgt::dig {
namespace {

using mgt::BitVector;
using mgt::Error;
using mgt::Rng;

/// Builds a minimal named bitstream (avoids aggregate-init warnings).
Bitstream named_bitstream(const char* name) {
  Bitstream b;
  b.design_name = name;
  return b;
}

// ----------------------------------------------------------------- lfsr --

class PrbsPeriod : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrbsPeriod, FullMaximalPeriod) {
  const unsigned order = GetParam();
  Lfsr lfsr = Lfsr::prbs(order, 1);
  const std::uint64_t start = lfsr.state();
  std::uint64_t period = 0;
  do {
    lfsr.next();
    ++period;
  } while (lfsr.state() != start && period <= lfsr.max_period());
  EXPECT_EQ(period, lfsr.max_period());
}

INSTANTIATE_TEST_SUITE_P(Orders, PrbsPeriod, ::testing::Values(7u, 15u));

TEST(Lfsr, Prbs7IsBalanced) {
  Lfsr lfsr = Lfsr::prbs7();
  const auto bits = lfsr.generate(127);
  // Maximal-length sequences have 2^(n-1) ones and 2^(n-1)-1 zeros.
  EXPECT_EQ(bits.popcount(), 64u);
  EXPECT_EQ(bits.longest_run(), 7u);
}

TEST(Lfsr, ZeroSeedIsRescued) {
  Lfsr lfsr(7, 6, 0);
  EXPECT_NE(lfsr.state(), 0u);
  // Must still advance (the all-zero lockup state is unreachable).
  lfsr.next();
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr, SameSeedSameSequence) {
  Lfsr a = Lfsr::prbs23(0xACE1);
  Lfsr b = Lfsr::prbs23(0xACE1);
  EXPECT_EQ(a.generate(1000), b.generate(1000));
}

TEST(Lfsr, InvalidParametersThrow) {
  EXPECT_THROW(Lfsr(1, 1, 1), Error);
  EXPECT_THROW(Lfsr(64, 1, 1), Error);
  EXPECT_THROW(Lfsr(7, 7, 1), Error);
  EXPECT_THROW(Lfsr(7, 0, 1), Error);
  EXPECT_THROW(Lfsr::prbs(9), Error);
}

// -------------------------------------------------------------- pattern --

TEST(PatternMemory, LoadAndLoopedRead) {
  PatternMemory mem(64);
  mem.load(BitVector::from_string("1101"));
  EXPECT_EQ(mem.read(10).to_string(), "1101110111");
}

TEST(PatternMemory, DepthLimitEnforced) {
  PatternMemory mem(8);
  EXPECT_THROW(mem.load(BitVector(9)), Error);
  EXPECT_THROW(mem.load(BitVector()), Error);
  EXPECT_THROW(mem.read(1), Error);  // nothing loaded
}

TEST(Patterns, Generators) {
  EXPECT_EQ(patterns::alternating(6).to_string(), "010101");
  EXPECT_EQ(patterns::square(8, 2).to_string(), "00110011");
  const auto comma = patterns::comma(40);
  EXPECT_EQ(comma.size(), 40u);
  EXPECT_EQ(comma.slice(0, 20), comma.slice(20, 20));
  EXPECT_EQ(comma.longest_run(), 5u);
  const auto walk = patterns::walking_one(16, 4);
  EXPECT_EQ(walk.popcount(), 4u);
}

// ------------------------------------------------------------ registers --

TEST(RegisterFile, DefineReadWrite) {
  RegisterFile regs;
  regs.define(0x10, 42);
  EXPECT_EQ(regs.read(0x10), 42u);
  regs.write(0x10, 7);
  EXPECT_EQ(regs.read(0x10), 7u);
}

TEST(RegisterFile, ReadOnlyRejectsBusWrites) {
  RegisterFile regs;
  regs.define_ro(0x00, 0xD1C20050);
  EXPECT_EQ(regs.read(0x00), 0xD1C20050u);
  EXPECT_THROW(regs.write(0x00, 1), Error);
  regs.poke(0x00, 5);  // hardware-side update is allowed
  EXPECT_EQ(regs.read(0x00), 5u);
}

TEST(RegisterFile, UndefinedAddressThrows) {
  RegisterFile regs;
  EXPECT_THROW((void)regs.read(0x99), Error);
  EXPECT_THROW(regs.write(0x99, 0), Error);
}

TEST(RegisterFile, HooksFire) {
  RegisterFile regs;
  regs.define(0x01);
  std::uint32_t observed = 0;
  regs.on_write(0x01, [&](std::uint16_t, std::uint32_t v) { observed = v; });
  regs.on_read(0x01, [](std::uint16_t) { return 123u; });
  regs.write(0x01, 55);
  EXPECT_EQ(observed, 55u);
  EXPECT_EQ(regs.read(0x01), 123u);
}

TEST(RegisterFile, DoubleDefineThrows) {
  RegisterFile regs;
  regs.define(0x01);
  EXPECT_THROW(regs.define(0x01), Error);
}

// ------------------------------------------------------------ bitstream --

TEST(Bitstream, SerializeRoundTrip) {
  Bitstream bs;
  bs.design_name = "optical-testbed-tx";
  bs.version = 3;
  bs.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const auto image = bs.serialize();
  EXPECT_EQ(Bitstream::deserialize(image), bs);
}

TEST(Bitstream, CorruptionIsDetectedEverywhere) {
  Bitstream bs;
  bs.design_name = "x";
  bs.payload = {1, 2, 3, 4, 5};
  const auto image = bs.serialize();
  // Flip one bit in every byte position; all must be caught.
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto bad = image;
    bad[i] ^= 0x01;
    EXPECT_THROW(Bitstream::deserialize(bad), Error) << "byte " << i;
  }
}

TEST(Bitstream, TruncationIsDetected) {
  Bitstream bs;
  bs.payload = {1, 2, 3};
  auto image = bs.serialize();
  image.resize(image.size() - 3);
  EXPECT_THROW(Bitstream::deserialize(image), Error);
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  const std::vector<std::uint8_t> data = {'1', '2', '3', '4', '5',
                                          '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

// ---------------------------------------------------------------- flash --

TEST(Flash, NorProgrammingSemantics) {
  FlashMemory flash(2, 16);
  EXPECT_EQ(flash.read(0), 0xFF);
  flash.program(0, 0xF0);
  EXPECT_EQ(flash.read(0), 0xF0);
  flash.program(0, 0x0F);  // AND semantics: only 1->0 transitions
  EXPECT_EQ(flash.read(0), 0x00);
  flash.erase_sector(0);
  EXPECT_EQ(flash.read(0), 0xFF);
  EXPECT_EQ(flash.wear(0), 1u);
  EXPECT_EQ(flash.wear(1), 0u);
}

TEST(Flash, WriteImageSpansSectors) {
  FlashMemory flash(4, 8);
  std::vector<std::uint8_t> image(20, 0xAB);
  flash.write_image(4, image);
  EXPECT_EQ(flash.read_image(4, 20), image);
  // Sectors 0..2 were erased (the image touches bytes 4..23).
  EXPECT_EQ(flash.wear(0), 1u);
  EXPECT_EQ(flash.wear(1), 1u);
  EXPECT_EQ(flash.wear(2), 1u);
  EXPECT_EQ(flash.wear(3), 0u);
}

TEST(Flash, OutOfRangeThrows) {
  FlashMemory flash(1, 8);
  EXPECT_THROW((void)flash.read(8), Error);
  EXPECT_THROW(flash.program(8, 0), Error);
  EXPECT_THROW(flash.erase_sector(1), Error);
  EXPECT_THROW(flash.write_image(4, std::vector<std::uint8_t>(5)), Error);
}

// ----------------------------------------------------------------- jtag --

TEST(Tap, ResetFromAnyStateInFiveTmsOnes) {
  // From every reachable state, five TMS=1 clocks must land in
  // Test-Logic-Reset (the defining property of the TAP state machine).
  for (int start = 0; start < 16; ++start) {
    auto state = static_cast<TapState>(start);
    for (int i = 0; i < 5; ++i) {
      state = tap_next_state(state, true);
    }
    EXPECT_EQ(state, TapState::TestLogicReset)
        << "from " << tap_state_name(static_cast<TapState>(start));
  }
}

TEST(Tap, CanonicalPathToShiftDr) {
  auto s = TapState::RunTestIdle;
  s = tap_next_state(s, true);   // Select-DR
  EXPECT_EQ(s, TapState::SelectDrScan);
  s = tap_next_state(s, false);  // Capture-DR
  EXPECT_EQ(s, TapState::CaptureDr);
  s = tap_next_state(s, false);  // Shift-DR
  EXPECT_EQ(s, TapState::ShiftDr);
  s = tap_next_state(s, true);   // Exit1-DR
  s = tap_next_state(s, true);   // Update-DR
  EXPECT_EQ(s, TapState::UpdateDr);
  s = tap_next_state(s, false);  // Run-Test/Idle
  EXPECT_EQ(s, TapState::RunTestIdle);
}

TEST(Tap, PauseAndResumeShifting) {
  auto s = TapState::ShiftDr;
  s = tap_next_state(s, true);   // Exit1-DR
  s = tap_next_state(s, false);  // Pause-DR
  EXPECT_EQ(s, TapState::PauseDr);
  s = tap_next_state(s, false);  // stay paused
  EXPECT_EQ(s, TapState::PauseDr);
  s = tap_next_state(s, true);   // Exit2-DR
  s = tap_next_state(s, false);  // back to Shift-DR
  EXPECT_EQ(s, TapState::ShiftDr);
}

TEST(Jtag, ReadIdcode) {
  TapDevice tap(0x2005DA7E, nullptr);
  JtagHost host(tap);
  EXPECT_EQ(host.read_idcode(), 0x2005DA7Eu);
  // Reset selects IDCODE automatically; read again without shift_ir.
  host.reset();
  const auto bits = host.shift_dr(std::vector<bool>(32, false));
  std::uint32_t id = 0;
  for (int i = 0; i < 32; ++i) {
    id |= static_cast<std::uint32_t>(bits[i]) << i;
  }
  EXPECT_EQ(id, 0x2005DA7Eu);
}

TEST(Jtag, BypassIsOneBit) {
  TapDevice tap(1, nullptr);
  JtagHost host(tap);
  host.shift_ir(tap_ins::kBypass);
  // Shifting N bits through a 1-bit bypass returns them delayed by one.
  const std::vector<bool> in = {true, false, true, true, false};
  const auto out = host.shift_dr(in);
  for (std::size_t i = 1; i < in.size(); ++i) {
    EXPECT_EQ(out[i], in[i - 1]);
  }
}

TEST(Jtag, UnknownInstructionSelectsBypass) {
  TapDevice tap(1, nullptr);
  JtagHost host(tap);
  host.shift_ir(0x5A);
  const auto out = host.shift_dr({true, false, true});
  EXPECT_EQ(out[1], true);
  EXPECT_EQ(out[2], false);
}

TEST(Jtag, FlashProgramAndVerify) {
  FlashMemory flash(8, 256);
  TapDevice tap(1, &flash);
  JtagHost host(tap);
  std::vector<std::uint8_t> image = {0x10, 0x20, 0x55, 0xAA, 0x00, 0xFF};
  host.program_flash_image(0, image, flash.sector_size());
  EXPECT_EQ(flash.read_image(0, image.size()), image);
}

TEST(Jtag, FlashVerifyCatchesFailure) {
  FlashMemory flash(8, 256);
  TapDevice tap(1, &flash);
  JtagHost host(tap);
  // Pre-program a zero byte; without an erase, 0xFF cannot be written back,
  // so programming an image without covering erase must fail verify...
  flash.program(3, 0x00);
  // ...but program_flash_image erases first, so it succeeds:
  std::vector<std::uint8_t> image = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_NO_THROW(host.program_flash_image(0, image, flash.sector_size()));
  // Direct streaming without erase fails to flip 0 -> 1:
  flash.program(1, 0x00);
  host.write_flash_address(0);
  host.program_flash_bytes({0xFF, 0xFF});
  EXPECT_EQ(flash.read(1), 0x00);
}

TEST(Jtag, BoundaryScanSampleAndExtest) {
  TapDevice tap(1, nullptr, 4);
  JtagHost host(tap);
  tap.set_pins({true, false, true, true});
  host.shift_ir(tap_ins::kSample);
  const auto sampled = host.shift_dr(std::vector<bool>(4, false));
  EXPECT_EQ(sampled, (std::vector<bool>{true, false, true, true}));

  host.shift_ir(tap_ins::kExtest);
  host.shift_dr({false, true, false, true});
  EXPECT_EQ(tap.driven_pins(), (std::vector<bool>{false, true, false, true}));
}

// ------------------------------------------------------------------ usb --

TEST(Usb, Crc5MatchesSpecExamples) {
  // USB 2.0 spec examples: addr=0x15 endp=0xE -> CRC5 0x17 is a classic
  // check; verify self-consistency + complement property instead of
  // memorized constants: received (data | crc) must validate.
  for (std::uint16_t field = 0; field < 0x800; field += 37) {
    const std::uint8_t crc = usb_crc5(field);
    EXPECT_LT(crc, 32);
    TokenPacket token;
    token.address = field & 0x7F;
    token.endpoint = (field >> 7) & 0xF;
    const auto wire = token.serialize();
    EXPECT_TRUE(TokenPacket::deserialize(wire).has_value());
  }
}

TEST(Usb, PidByteComplementChecked) {
  EXPECT_TRUE(decode_pid(pid_byte(Pid::Setup)).has_value());
  EXPECT_EQ(*decode_pid(pid_byte(Pid::Ack)), Pid::Ack);
  EXPECT_FALSE(decode_pid(0xFF).has_value());
  EXPECT_FALSE(decode_pid(pid_byte(Pid::Setup) ^ 0x10).has_value());
}

TEST(Usb, TokenRoundTripAndCorruption) {
  TokenPacket token{.pid = Pid::In, .address = 42, .endpoint = 3};
  auto wire = token.serialize();
  const auto back = TokenPacket::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->address, 42);
  EXPECT_EQ(back->endpoint, 3);
  wire[1] ^= 0x04;
  EXPECT_FALSE(TokenPacket::deserialize(wire).has_value());
}

TEST(Usb, DataRoundTripAndCorruption) {
  DataPacket data{.pid = Pid::Data1, .payload = {1, 2, 3, 4, 5}};
  auto wire = data.serialize();
  const auto back = DataPacket::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, data.payload);
  EXPECT_EQ(back->pid, Pid::Data1);
  wire[3] ^= 0x80;
  EXPECT_FALSE(DataPacket::deserialize(wire).has_value());
}

TEST(Usb, RegisterReadWriteThroughProtocol) {
  Dlc dlc;
  UsbDevice device(5, dlc.usb_handler());
  UsbHost host(device);
  host.write_register(reg::kScratch, 0xCAFEF00D);
  EXPECT_EQ(host.read_register(reg::kScratch), 0xCAFEF00Du);
  EXPECT_EQ(host.read_register(reg::kId), reg::kIdValue);
}

TEST(Usb, RetriesThroughNoisyLink) {
  Dlc dlc;
  UsbDevice device(5, dlc.usb_handler());
  UsbHost host(device);
  // Corrupt every third packet on the wire.
  int counter = 0;
  host.set_corruptor([&](Wire& wire) {
    if (++counter % 3 == 0 && !wire.empty()) {
      wire[wire.size() / 2] ^= 0x40;
    }
  });
  for (std::uint32_t i = 0; i < 50; ++i) {
    host.write_register(reg::kScratch, i);
    EXPECT_EQ(host.read_register(reg::kScratch), i);
  }
  EXPECT_GT(host.retries(), 0u);
}

TEST(Usb, HopelessLinkThrows) {
  Dlc dlc;
  UsbDevice device(5, dlc.usb_handler());
  UsbHost host(device);
  host.set_corruptor([](Wire& wire) {
    for (auto& b : wire) {
      b ^= 0xFF;
    }
  });
  EXPECT_THROW(host.write_register(reg::kScratch, 1), Error);
}

TEST(Usb, WrongAddressIgnored) {
  Dlc dlc;
  UsbDevice device(5, dlc.usb_handler());
  TokenPacket token{.pid = Pid::Setup, .address = 9, .endpoint = 0};
  DataPacket data{.pid = Pid::Data0, .payload = usbreq::make_read(0)};
  EXPECT_FALSE(device.on_setup(token.serialize(), data.serialize()).has_value());
}

// ------------------------------------------------------------------ dlc --

TEST(Dlc, BootFromFlashHappyPath) {
  Dlc dlc;
  EXPECT_FALSE(dlc.configured());
  Bitstream bs;
  bs.design_name = "wlp-minitester";
  bs.payload.assign(64, 0x11);
  FlashMemory flash;
  const auto image = bs.serialize();
  flash.write_image(0, image);
  dlc.boot_from_flash(flash, 0, image.size());
  EXPECT_TRUE(dlc.configured());
  EXPECT_EQ(dlc.design_name(), "wlp-minitester");
}

TEST(Dlc, CorruptedFlashFailsBoot) {
  Dlc dlc;
  Bitstream bs;
  bs.payload.assign(16, 0x22);
  FlashMemory flash;
  auto image = bs.serialize();
  flash.write_image(0, image);
  flash.program(20, 0x00);  // corrupt a payload byte (0x22 -> 0x00) in place
  EXPECT_THROW(dlc.boot_from_flash(flash, 0, image.size()), Error);
  EXPECT_FALSE(dlc.configured());
}

TEST(Dlc, CannotStartUnconfigured) {
  Dlc dlc;
  EXPECT_THROW(dlc.regs().write(reg::kCtrl, reg::kCtrlStart), Error);
}

TEST(Dlc, StartStopStatus) {
  Dlc dlc;
  dlc.configure(named_bitstream("x"));
  EXPECT_EQ(dlc.status(), reg::kStatusIdle);
  dlc.regs().write(reg::kCtrl, reg::kCtrlStart);
  EXPECT_EQ(dlc.status(), reg::kStatusRunning);
  dlc.regs().write(reg::kCtrl, reg::kCtrlStop);
  EXPECT_EQ(dlc.status(), reg::kStatusIdle);
}

TEST(Dlc, LaneRateEnforcement) {
  Dlc dlc;  // default margin 400 Mbps, max 800 Mbps, 8 lanes
  dlc.regs().write(reg::kLaneCount, 8);
  EXPECT_NO_THROW(dlc.check_lane_rate(GbitsPerSec{2.5}));
  EXPECT_TRUE(dlc.within_margin(GbitsPerSec{2.5}));      // 312 Mbps/lane
  EXPECT_FALSE(dlc.within_margin(GbitsPerSec{4.0}));     // 500 Mbps/lane
  EXPECT_THROW(dlc.check_lane_rate(GbitsPerSec{8.0}), Error);  // 1 Gbps/lane
}

TEST(Dlc, PrbsSerialMatchesLfsr) {
  Dlc dlc;
  dlc.configure(named_bitstream("x"));
  dlc.regs().write(reg::kPrbsOrder, 15);
  dlc.regs().write(reg::kSeedLo, 0x1234);
  dlc.regs().write(reg::kSeedHi, 0);
  Lfsr reference = Lfsr::prbs15(0x1234);
  EXPECT_EQ(dlc.expected_serial(4096), reference.generate(4096));
}

TEST(Dlc, PatternBanksArePerChannel) {
  Dlc dlc;
  dlc.configure(named_bitstream("x"));
  UsbDevice device(5, dlc.usb_handler());
  device.set_bulk_handler(kPatternEndpoint, dlc.usb_bulk_pattern_handler());
  UsbHost host(device);
  upload_pattern(host, 0, BitVector::from_string("11110000"));
  upload_pattern(host, 1, BitVector::from_string("00001111"));
  dlc.regs().write(reg::kCtrl, reg::kCtrlModePattern);

  dlc.regs().write(reg::kChannelSel, 0);
  EXPECT_EQ(dlc.expected_serial(8).to_string(), "11110000");
  dlc.regs().write(reg::kChannelSel, 1);
  EXPECT_EQ(dlc.expected_serial(8).to_string(), "00001111");
}

TEST(Dlc, PatternModeWithoutUploadThrows) {
  Dlc dlc;
  dlc.configure(named_bitstream("x"));
  dlc.regs().write(reg::kCtrl, reg::kCtrlModePattern);
  EXPECT_THROW(dlc.expected_serial(8), Error);
}

TEST(Dlc, OversizedBitstreamRejected) {
  Dlc dlc;
  Bitstream bs;
  bs.payload.assign(DlcSpec::kBitstreamMaxBytes, 0);
  EXPECT_NO_THROW(dlc.configure(bs));
  bs.payload.push_back(0);
  EXPECT_THROW(dlc.configure(bs), Error);
}

}  // namespace
}  // namespace mgt::dig
