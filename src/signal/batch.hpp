// Structure-of-arrays batch layout for the waveform engine.
//
// The renderer fills fixed-capacity SampleBlocks (parallel time/voltage
// arrays) and hands whole blocks to sinks instead of one virtual call per
// grid sample. Sinks that implement on_block() run their hot loops over the
// contiguous arrays, while sinks that don't get a per-sample replay that is
// byte-identical to the pre-batch engine.
#pragma once

#include <cstddef>

namespace mgt::sig {

/// One batch of rendered grid samples in structure-of-arrays layout.
/// Times are picoseconds, voltages millivolts — the same doubles the
/// per-sample WaveformSink::on_sample interface carries.
struct SampleBlock {
  /// Samples per block. Two arrays of 512 doubles (8 KiB) stay resident in
  /// L1 while a sink's per-block loops run.
  static constexpr std::size_t kCapacity = 512;

  std::size_t size = 0;
  double t[kCapacity];  // sample times, ps, strictly increasing
  double v[kCapacity];  // rendered voltages, mV

  [[nodiscard]] bool full() const { return size == kCapacity; }
  void clear() { size = 0; }
  void push(double t_sample, double v_sample) {
    t[size] = t_sample;
    v[size] = v_sample;
    ++size;
  }
};

}  // namespace mgt::sig
