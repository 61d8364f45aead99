// Tests for the third extension wave: jitter spectrum analysis, clock
// distribution trees, and USB bulk transfers.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/spectrum.hpp"
#include "core/presets.hpp"
#include "digital/dlc.hpp"
#include "minitester/minitester.hpp"
#include "digital/usb.hpp"
#include "pecl/clocktree.hpp"
#include "signal/jitter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mgt {
namespace {

// ---------------------------------------------------------------- spectrum --

std::vector<sig::Crossing> jittered_edges(std::size_t n, double ui,
                                          const sig::JitterSpec& spec,
                                          Rng rng) {
  sig::JitterSource source(spec, rng);
  std::vector<sig::Crossing> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Picoseconds nominal{static_cast<double>(k + 1) * ui};
    out.push_back({nominal + source.offset(nominal), true});
  }
  return out;
}

TEST(Spectrum, TieExtraction) {
  std::vector<sig::Crossing> crossings = {
      {Picoseconds{403.0}, true},
      {Picoseconds{798.0}, false},
      {Picoseconds{1201.0}, true},
  };
  const auto tie = ana::extract_tie(crossings, Picoseconds{400.0});
  ASSERT_EQ(tie.tie_ps.size(), 3u);
  EXPECT_NEAR(tie.tie_ps[0], 3.0, 1e-9);
  EXPECT_NEAR(tie.tie_ps[1], -2.0, 1e-9);
  EXPECT_NEAR(tie.tie_ps[2], 1.0, 1e-9);
  EXPECT_NEAR(tie.mean_spacing.ps(), (1201.0 - 403.0) / 2.0, 1e-9);
}

TEST(Spectrum, DetectsInjectedPeriodicTone) {
  // Edges every 400 ps with 4 ps 0-peak PJ at 50 MHz.
  sig::JitterSpec spec;
  spec.pj_amplitude = Picoseconds{4.0};
  spec.pj_frequency = Gigahertz{0.05};
  spec.rj_sigma = Picoseconds{0.5};
  const auto crossings = jittered_edges(8192, 400.0, spec, Rng(1));
  const auto tie = ana::extract_tie(crossings, Picoseconds{400.0});
  const auto spectrum = ana::jitter_spectrum(tie, 512);
  ASSERT_FALSE(spectrum.empty());
  const auto tones = ana::find_tones(spectrum);
  ASSERT_FALSE(tones.empty());
  EXPECT_NEAR(tones.front().frequency.ghz(), 0.05, 0.01);
  EXPECT_NEAR(tones.front().amplitude.ps(), 4.0, 1.5);
}

TEST(Spectrum, PureRjHasNoTones) {
  sig::JitterSpec spec;
  spec.rj_sigma = Picoseconds{3.0};
  const auto crossings = jittered_edges(8192, 400.0, spec, Rng(2));
  const auto tie = ana::extract_tie(crossings, Picoseconds{400.0});
  const auto tones = ana::find_tones(ana::jitter_spectrum(tie, 512));
  EXPECT_TRUE(tones.empty());
}

TEST(Spectrum, TooFewEdgesIsEmpty) {
  const auto tie = ana::extract_tie({}, Picoseconds{400.0});
  EXPECT_TRUE(tie.empty());
  EXPECT_TRUE(ana::jitter_spectrum(tie).empty());
}

// --------------------------------------------------------------- clocktree --

TEST(ClockTree, DepthAndBufferCount) {
  pecl::ClockTree small(pecl::ClockTree::Config{.loads = 4,
                                                .fanout_per_buffer = 4},
                        Rng(1));
  EXPECT_EQ(small.depth(), 1u);
  EXPECT_EQ(small.buffer_count(), 1u);

  pecl::ClockTree big(pecl::ClockTree::Config{.loads = 16,
                                              .fanout_per_buffer = 4},
                      Rng(2));
  EXPECT_EQ(big.depth(), 2u);
  EXPECT_EQ(big.buffer_count(), 5u);  // 1 root + 4 leaves

  pecl::ClockTree deep(pecl::ClockTree::Config{.loads = 9,
                                               .fanout_per_buffer = 2},
                       Rng(3));
  EXPECT_EQ(deep.depth(), 4u);  // 2^4 = 16 >= 9
}

TEST(ClockTree, SkewSpreadGrowsWithDepth) {
  double spreads[2];
  int i = 0;
  for (std::size_t fanout : {16u, 2u}) {
    // Same 16 loads, shallow (one 16:1-ish) vs deep (binary) distribution.
    pecl::ClockTree::Config config;
    config.loads = 16;
    config.fanout_per_buffer = fanout;
    pecl::ClockTree tree(config, Rng(7));
    spreads[i++] = tree.skew_spread_pp().ps();
  }
  EXPECT_GT(spreads[1], spreads[0]);  // deeper tree accumulates more skew
}

TEST(ClockTree, DriveMatchesComputedSkew) {
  pecl::ClockTree::Config config;
  config.loads = 16;
  config.fanout_per_buffer = 4;
  config.buffer.rj_sigma = Picoseconds{0.0};  // deterministic check
  pecl::ClockTree tree(config, Rng(11));
  const auto clk = sig::EdgeStream::clock(Picoseconds{800.0}, 8);
  for (std::size_t load : {0u, 5u, 15u}) {
    const auto out = tree.drive(clk, load);
    const double shift =
        out.transitions()[0].time.ps() - clk.transitions()[0].time.ps();
    const double expected =
        static_cast<double>(tree.depth()) * config.buffer.prop_delay.ps() +
        tree.load_skew(load).ps();
    EXPECT_NEAR(shift, expected, 1e-9) << "load " << load;
  }
}

TEST(ClockTree, PathRjScalesWithSqrtDepth) {
  pecl::ClockTree::Config config;
  config.loads = 16;
  config.fanout_per_buffer = 2;  // depth 4
  config.buffer.rj_sigma = Picoseconds{1.0};
  pecl::ClockTree tree(config, Rng(13));
  EXPECT_NEAR(tree.path_rj_sigma().ps(), 2.0, 1e-9);  // sqrt(4)
}

TEST(ClockTree, InvalidLoadThrows) {
  pecl::ClockTree tree(pecl::ClockTree::Config{.loads = 4}, Rng(17));
  const auto clk = sig::EdgeStream::clock(Picoseconds{800.0}, 2);
  EXPECT_THROW(tree.drive(clk, 4), Error);
  EXPECT_THROW((void)tree.load_skew(4), Error);
}

// ---------------------------------------------------------------- usb bulk --

class BulkFixture : public ::testing::Test {
protected:
  BulkFixture() : device_(5, [](const auto&) {
    return std::vector<std::uint8_t>{};
  }), host_(device_) {
    device_.set_bulk_handler(1, [this](const std::vector<std::uint8_t>& p) {
      received_.push_back(p);
    });
  }
  dig::UsbDevice device_;
  dig::UsbHost host_;
  std::vector<std::vector<std::uint8_t>> received_;
};

TEST_F(BulkFixture, MultiChunkTransferReassembles) {
  std::vector<std::uint8_t> payload(200);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  host_.bulk_write(1, payload);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], payload);
}

TEST_F(BulkFixture, ExactMultipleUsesZeroLengthTerminator) {
  std::vector<std::uint8_t> payload(128, 0xAB);  // 2 x 64
  host_.bulk_write(1, payload);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].size(), 128u);
}

TEST_F(BulkFixture, ConsecutiveTransfersKeepToggleContinuity) {
  // The regression that bit us: the pipe toggle persists across
  // transfers; a host resetting to DATA0 loses every second transfer.
  for (int t = 0; t < 5; ++t) {
    host_.bulk_write(1, std::vector<std::uint8_t>(10, static_cast<std::uint8_t>(t)));
  }
  ASSERT_EQ(received_.size(), 5u);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(received_[static_cast<std::size_t>(t)][0], t);
  }
}

TEST_F(BulkFixture, CorruptedChunksAreRetriedNotDuplicated) {
  int counter = 0;
  host_.set_corruptor([&](dig::Wire& wire) {
    if (++counter % 4 == 0 && !wire.empty()) {
      wire[wire.size() / 2] ^= 0x20;
    }
  });
  std::vector<std::uint8_t> payload(300, 0x5A);
  host_.bulk_write(1, payload);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], payload);  // no loss, no duplication
  EXPECT_GT(host_.retries(), 0u);
}

TEST_F(BulkFixture, UnconfiguredEndpointStalls) {
  EXPECT_THROW(host_.bulk_write(2, {1, 2, 3}), Error);
}

TEST(BulkDlc, UploadPatternMatchesHandPackedPayload) {
  // The wire format written out by hand (channel, length, then 32 bits per
  // word LSB first) and dig::upload_pattern fill their banks alike.
  dig::Dlc dlc;
  dig::Bitstream bitstream;
  bitstream.design_name = "bulk";
  dlc.configure(bitstream);
  dig::UsbDevice device(5, dlc.usb_handler());
  device.set_bulk_handler(dig::kPatternEndpoint,
                          dlc.usb_bulk_pattern_handler());
  dig::UsbHost host(device);

  Rng rng(3);
  const auto pattern = BitVector::random(777, rng);
  std::vector<std::uint8_t> payload;
  auto put = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  put(3);  // channel
  put(static_cast<std::uint32_t>(pattern.size()));
  for (std::size_t w = 0; w * 32 < pattern.size(); ++w) {
    std::uint32_t word = 0;
    for (std::size_t b = 0; b < 32 && w * 32 + b < pattern.size(); ++b) {
      word |= static_cast<std::uint32_t>(pattern.get(w * 32 + b)) << b;
    }
    put(word);
  }
  host.bulk_write(dig::kPatternEndpoint, payload);
  dig::upload_pattern(host, 4, pattern);

  host.write_register(dig::reg::kCtrl, dig::reg::kCtrlModePattern);
  host.write_register(dig::reg::kChannelSel, 3);
  EXPECT_EQ(dlc.expected_serial(777), pattern);
  host.write_register(dig::reg::kChannelSel, 4);
  EXPECT_EQ(dlc.expected_serial(777), pattern);
}

TEST(BulkDlc, MalformedUploadRejected) {
  dig::Dlc dlc;
  dig::UsbDevice device(5, dlc.usb_handler());
  device.set_bulk_handler(1, dlc.usb_bulk_pattern_handler());
  dig::UsbHost host(device);
  EXPECT_THROW(host.bulk_write(1, {1, 2, 3}), Error);        // too short
  EXPECT_THROW(host.bulk_write(1, std::vector<std::uint8_t>(8, 0)), Error);
}

// ----------------------------------------------------------- capture RAM --

TEST(CaptureRam, StoreAndRegisterReadout) {
  dig::Dlc dlc;
  dig::Bitstream bitstream;
  bitstream.design_name = "cap";
  dlc.configure(bitstream);
  Rng rng(5);
  const auto bits = BitVector::random(100, rng);
  dlc.store_capture(bits);
  EXPECT_EQ(dlc.regs().read(dig::reg::kCapCount), 100u);

  dig::UsbDevice device(5, dlc.usb_handler());
  dig::UsbHost host(device);
  EXPECT_EQ(dig::read_capture(host), bits);
  // A second readout restarts cleanly at address 0.
  EXPECT_EQ(dig::read_capture(host), bits);
}

TEST(CaptureRam, EmptyCaptureReadsEmpty) {
  dig::Dlc dlc;
  dig::Bitstream bitstream;
  bitstream.design_name = "cap";
  dlc.configure(bitstream);
  dig::UsbDevice device(5, dlc.usb_handler());
  dig::UsbHost host(device);
  EXPECT_TRUE(dig::read_capture(host).empty());
}

TEST(CaptureRam, MinitesterLoopbackCaptureReadableOverUsb) {
  minitester::MiniTester tester(minitester::MiniTester::Config{}, 7);
  tester.program_prbs(7, 0xACE1);
  tester.start();
  const auto ber = tester.run_loopback(1024);
  EXPECT_EQ(ber.errors, 0u);
  const auto capture = tester.last_capture_via_usb();
  EXPECT_EQ(capture.size(), ber.bits_compared + ber.alignment);
  // The capture is real data, not a stuck line.
  EXPECT_GT(capture.transition_count(), 100u);
}

}  // namespace
}  // namespace mgt
