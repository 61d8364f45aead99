#include "testbed/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace mgt::testbed {

namespace {

/// Residual-skew acceptance bound (paper: about +-25 ps).
constexpr Picoseconds kResidualBound{25.0};

/// First transition time of `signal` at or after `t_begin`; nullopt when
/// the channel is dead.
std::optional<double> first_edge_after(const sig::EdgeStream& signal,
                                       Picoseconds t_begin) {
  for (const auto& tr : signal.transitions()) {
    if (tr.time >= t_begin) {
      return tr.time.ps();
    }
  }
  return std::nullopt;
}

/// Calibration pattern: a packet whose payload channels toggle every bit.
/// The first payload transition is an unambiguous marker edge: comparing
/// it to the clock channel's first window edge measures skew over the
/// whole delay-line range (dense-edge matching would alias beyond half a
/// clock period).
TestbedPacket alignment_packet(const SlotFormat& format) {
  TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector::alternating(format.data_bits, true);
  }
  packet.header = 0;
  return packet;
}

/// Per-channel skew with fault masking: a channel that produces no edges
/// is marked dead instead of aborting the measurement.
struct MaskedSkew {
  std::array<Picoseconds, kHighSpeedChannels> skew{};
  std::array<bool, kHighSpeedChannels> alive{};
};

MaskedSkew measure_skew_masked(OpticalTransmitter& tx,
                               std::size_t averaging_slots) {
  MGT_CHECK(averaging_slots >= 1);
  const SlotFormat& fmt = tx.config().format;
  const auto packet = alignment_packet(fmt);
  // The clock's first window edge leads the first payload edge by the
  // pre-clock bits; anything beyond that is channel skew.
  const double nominal_lead =
      static_cast<double>(fmt.pre_clock_bits) * fmt.ui.ps();

  MaskedSkew out;
  out.alive.fill(true);
  std::array<RunningStats, kHighSpeedChannels> stats{};
  for (std::size_t slot = 0; slot < averaging_slots; ++slot) {
    const Picoseconds t_start{static_cast<double>(slot) * 4.0 *
                              fmt.slot_duration().ps()};
    const auto signals = tx.transmit(packet, t_start);
    const auto t_clock = first_edge_after(signals.clock, t_start);
    if (!t_clock) {
      // No timing reference at all: every skew is unmeasurable.
      out.alive[kClockChannel] = false;
      return out;
    }
    for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
      if (!out.alive[ch]) {
        continue;
      }
      const auto t_data = first_edge_after(signals.data[ch], t_start);
      if (t_data) {
        stats[ch].add(*t_data - *t_clock - nominal_lead);
      } else {
        out.alive[ch] = false;
      }
    }
  }
  for (std::size_t ch = 0; ch < kDataChannels; ++ch) {
    out.skew[ch] =
        out.alive[ch] ? Picoseconds{stats[ch].mean()} : Picoseconds{0.0};
  }
  out.skew[kClockChannel] = Picoseconds{0.0};  // the reference, by definition
  return out;
}

void require_alive(const MaskedSkew& measured) {
  for (const bool alive : measured.alive) {
    if (!alive) {
      throw RecoverableError("calibration", "channel produced no edges");
    }
  }
}

/// Worst |residual| across alive channels after removing their common mode
/// (the receiver tracks a common-mode shift of the whole bus
/// source-synchronously, so it is not skew).
Picoseconds worst_alive_residual(
    std::array<Picoseconds, kHighSpeedChannels>& residual,
    const std::array<bool, kHighSpeedChannels>& alive) {
  double mean = 0.0;
  std::size_t n = 0;
  for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
    if (alive[ch]) {
      mean += residual[ch].ps();
      ++n;
    }
  }
  mean /= static_cast<double>(n == 0 ? 1 : n);
  double worst = 0.0;
  for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
    if (alive[ch]) {
      residual[ch] -= Picoseconds{mean};
      worst = std::max(worst, std::abs(residual[ch].ps()));
    } else {
      residual[ch] = Picoseconds{0.0};
    }
  }
  return Picoseconds{worst};
}

/// The bring-up loop behind both public procedures: measure, two
/// correction passes, verify, and retry with doubled averaging while the
/// residual misses the bound. With `strict`, the first measurement that
/// sees a dead channel throws instead of masking it.
CalibrationOutcome align_channels(OpticalTransmitter& tx,
                                  const CalibrationOptions& options,
                                  bool strict) {
  MGT_CHECK(options.max_attempts >= 1);
  MGT_CHECK(options.averaging_slots >= 1);
  auto measure = [&](std::size_t averaging) {
    MaskedSkew measured = measure_skew_masked(tx, averaging);
    if (strict) {
      require_alive(measured);
    }
    return measured;
  };

  CalibrationOutcome outcome;
  std::size_t averaging = options.averaging_slots;
  for (std::size_t attempt = 1; attempt <= options.max_attempts; ++attempt) {
    outcome.attempts = attempt;
    outcome.averaging_slots_used = averaging;

    const MaskedSkew initial = measure(averaging);
    outcome.report.initial_skew = initial.skew;
    if (!initial.alive[kClockChannel]) {
      // No reference: nothing left to align against, give up immediately.
      outcome.dead_channels.assign(1, kClockChannel);
      return outcome;
    }

    const double step = tx.channel_delay(0).step().ps();
    std::array<std::size_t, kHighSpeedChannels> codes{};
    for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
      codes[ch] = tx.channel_delay(ch).code();
    }

    // Two correction passes: the first lands within one or two codes (the
    // delay lines' own INL/offset errors are unknown a priori), the second
    // trims the residual.
    std::array<bool, kHighSpeedChannels> alive = initial.alive;
    for (int pass = 0; pass < 2; ++pass) {
      const MaskedSkew measured = measure(averaging);
      if (!measured.alive[kClockChannel]) {
        outcome.dead_channels.assign(1, kClockChannel);
        return outcome;
      }
      for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
        alive[ch] = alive[ch] && measured.alive[ch];
      }
      // Align alive channels to the latest alive one (delays only add).
      Picoseconds latest{-1e300};
      for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
        if (alive[ch]) {
          latest = std::max(latest, measured.skew[ch]);
        }
      }
      for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
        if (!alive[ch]) {
          continue;
        }
        const Picoseconds needed = latest - measured.skew[ch];
        const auto delta = static_cast<long>(std::lround(needed.ps() / step));
        const long code = static_cast<long>(codes[ch]) + delta;
        const long max_code =
            static_cast<long>(tx.channel_delay(ch).code_count()) - 1;
        codes[ch] = static_cast<std::size_t>(std::clamp(code, 0L, max_code));
        tx.set_channel_delay_code(ch, codes[ch]);
      }
    }

    outcome.report.programmed_codes = codes;
    MaskedSkew residual = measure(averaging);
    if (!residual.alive[kClockChannel]) {
      outcome.dead_channels.assign(1, kClockChannel);
      return outcome;
    }
    for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
      alive[ch] = alive[ch] && residual.alive[ch];
    }
    outcome.report.residual_skew = residual.skew;
    const Picoseconds worst =
        worst_alive_residual(outcome.report.residual_skew, alive);

    outcome.dead_channels.clear();
    for (std::size_t ch = 0; ch < kHighSpeedChannels; ++ch) {
      if (!alive[ch]) {
        outcome.dead_channels.push_back(ch);
      }
    }
    if (worst <= kResidualBound) {
      outcome.converged = true;
      return outcome;
    }
    averaging *= 2;  // bounded backoff: retry with deeper averaging
  }
  return outcome;
}

}  // namespace

Picoseconds CalibrationReport::worst_residual() const {
  double worst = 0.0;
  for (const Picoseconds r : residual_skew) {
    worst = std::max(worst, std::abs(r.ps()));
  }
  return Picoseconds{worst};
}

bool CalibrationReport::within(Picoseconds bound) const {
  return worst_residual() <= bound;
}

std::array<Picoseconds, kHighSpeedChannels> measure_channel_skew(
    OpticalTransmitter& tx, std::size_t averaging_slots) {
  const MaskedSkew measured = measure_skew_masked(tx, averaging_slots);
  require_alive(measured);
  return measured.skew;
}

CalibrationReport calibrate_transmitter(OpticalTransmitter& tx,
                                        std::size_t averaging_slots) {
  return align_channels(
             tx, {.averaging_slots = averaging_slots, .max_attempts = 1},
             /*strict=*/true)
      .report;
}

CalibrationOutcome calibrate_with_recovery(OpticalTransmitter& tx,
                                           const CalibrationOptions& options) {
  return align_channels(tx, options, /*strict=*/false);
}

}  // namespace mgt::testbed
