// Optical Test Bed demo (Section 3 of the paper).
//
// Emulates a parallel slice of a processor-to-memory channel: packets are
// framed per Fig 4, serialized onto five wavelengths at 2.5 Gbps, pushed
// through the Data Vortex optical switching fabric, and recovered by the
// source-synchronous receiver. Prints the slot format, one narrated
// packet journey, and a loaded-fabric run with end-to-end bit accounting.
#include <cstdio>

#include "testbed/calibration.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"

int main() {
  using namespace mgt;
  using namespace mgt::testbed;

  std::printf("== Optical Test Bed: DLC + PECL driving a Data Vortex ==\n\n");

  // --- The Fig 4 slot format ---------------------------------------------
  const SlotFormat fmt;
  fmt.validate();
  std::printf("Packet slot format (Fig 4):\n");
  std::printf("  slot %.1f ns = dead %.1f + guard %.1f + window %.1f + "
              "guard %.1f\n",
              fmt.slot_duration().ns(),
              static_cast<double>(fmt.dead_bits) * fmt.ui.ns(),
              static_cast<double>(fmt.guard_bits) * fmt.ui.ns(),
              fmt.window_duration().ns(),
              static_cast<double>(fmt.guard_bits) * fmt.ui.ns());
  std::printf("  window = %zu pre-clocks + %zu data bits + %zu post-clocks\n\n",
              fmt.pre_clock_bits, fmt.data_bits, fmt.post_clock_bits);

  // --- Channel deskew calibration ------------------------------------------
  // Bring-up step: align the five high-speed channels with their 10 ps
  // delay lines before trusting any data (Section 3's timing-accuracy
  // requirement in action).
  {
    OpticalTransmitter::Config tx_config;
    tx_config.channel = core::presets::optical_testbed();
    OpticalTransmitter tx(tx_config, 123);
    for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
      tx.set_channel_delay_code(ch, (ch * 61) % 120);  // as-built skew
    }
    const auto report = calibrate_transmitter(tx);
    std::printf("Channel deskew calibration:\n");
    for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
      std::printf("  ch%zu: skew %+7.1f ps -> code %4zu -> residual "
                  "%+5.1f ps\n",
                  ch, report.initial_skew[ch].ps(),
                  report.programmed_codes[ch], report.residual_skew[ch].ps());
    }
    std::printf("  worst residual %.1f ps (paper's accuracy target: "
                "+-25 ps)\n\n",
                report.worst_residual().ps());
  }

  // --- One packet, end to end --------------------------------------------
  OpticalTestbed testbed(OpticalTestbed::Config{}, /*seed=*/7);
  Rng rng(99);
  TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector::random(fmt.data_bits, rng);
  }
  packet.header = 0xB;

  const auto budget = testbed.link_budget();
  std::printf("Optical link budget: launch %+.1f dBm, loss %.2f dB, "
              "received %+.2f dBm, margin %.1f dB\n",
              budget.launch_dbm, budget.loss_db, budget.received_dbm,
              budget.margin_db());

  const auto single = testbed.send_one(packet);
  std::printf("Single packet to port %u: captured=%s frame=%s header=%s, "
              "%zu payload bit errors in %zu bits\n\n",
              packet.header, single.captured ? "yes" : "no",
              single.frame_ok ? "ok" : "BAD",
              single.header_ok ? "ok" : "BAD", single.payload_bit_errors,
              kDataChannels * fmt.data_bits);

  // --- Loaded fabric run ---------------------------------------------------
  std::printf("Running 400 slots of random traffic at 50%% offered load...\n");
  const auto stats = testbed.run(0.5, 400);
  std::printf("  injected  : %llu packets\n",
              static_cast<unsigned long long>(stats.fabric.injected));
  std::printf("  delivered : %llu (every packet at its addressed port)\n",
              static_cast<unsigned long long>(stats.fabric.delivered));
  std::printf("  latency   : mean %.2f slots (%.0f ns), min %llu, max %llu\n",
              stats.mean_latency_slots,
              stats.mean_latency_slots * fmt.slot_duration().ns(),
              static_cast<unsigned long long>(stats.min_latency_slots),
              static_cast<unsigned long long>(stats.max_latency_slots));
  std::printf("  deflection: mean %.2f per packet (virtual buffering)\n",
              stats.mean_deflections);
  std::printf("  signal-path checks: %zu packets re-sent through the full\n"
              "  TX -> E/O -> fiber -> O/E -> RX chain: %zu bit errors "
              "(BER %.2e)\n",
              stats.signal_checks, stats.payload_bit_errors,
              stats.payload_ber());

  // --- Degraded signaling study (what the test bed is *for*) ---------------
  std::printf("\nCharacterizing under reduced swing "
              "(Fig 11-style stress):\n");
  for (double swing : {800.0, 400.0, 200.0}) {
    // Rebuild the test bed with the TX output buffers programmed to a
    // reduced swing (the Fig 11 control used as a stress knob).
    OpticalTestbed::Config config;
    config.channel.buffer.levels =
        sig::PeclLevels{}.with_swing(Millivolts{swing});
    OpticalTestbed stressed(config, 11);
    TestbedPacket probe;
    Rng prng(5);
    for (auto& lane : probe.payload) {
      lane = BitVector::random(fmt.data_bits, prng);
    }
    probe.header = 0x5;
    const auto result = stressed.send_one(probe);
    std::printf("  swing %.0f mV: %zu bit errors, frame %s\n", swing,
                result.payload_bit_errors, result.frame_ok ? "ok" : "lost");
  }
  return 0;
}
