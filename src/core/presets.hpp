// Channel presets calibrated to the two systems the paper builds.
//
// The component parameters (stage jitter, skew, rise times) are chosen so
// the simulated chain lands on the paper's measured figures of merit:
//
//   Optical test bed (Section 3, SiGe output stage):
//     - 20-80 % rise/fall 70-75 ps            (Fig 6)
//     - crossover TJ ~46.7 ps p-p at 2.5 Gbps (Fig 7, 0.88 UI)
//     - crossover TJ ~47.2 ps p-p at 4.0 Gbps (Fig 8, 0.81 UI)
//     - single-edge RJ ~24 ps p-p / 3.2 ps rms (Fig 9)
//
//   Mini-tester (Section 4, two-stage mux, differential I/O buffers):
//     - 20-80 % rise ~120 ps                  (Fig 18)
//     - ~50 ps p-p jitter; eye 0.95 UI at 1.0 Gbps, 0.87 at 2.5,
//       0.75 at 5.0 Gbps                      (Figs 16, 17, 19)
#pragma once

#include "core/test_system.hpp"
#include "pecl/delayline.hpp"

namespace mgt::core::presets {

/// Optical test bed transmitter channel (Section 3). Default 2.5 Gbps
/// (the project's target rate); Fig 8 runs the same channel at 4.0 Gbps.
ChannelConfig optical_testbed(GbitsPerSec rate = GbitsPerSec{2.5});

/// Mini-tester stimulus channel (Section 4). Default 5.0 Gbps (the
/// project's target); Figs 16/17 run it at 1.0 and 2.5 Gbps.
ChannelConfig minitester(GbitsPerSec rate = GbitsPerSec{5.0});

/// Strobe/edge-placement delay line for the requested timing mode: the
/// paper's 10 ps stepped tap chain, or the sub-picosecond vernier
/// interpolator covering the same ~10 ns range. The default is the
/// paper's stepped chain; the vernier mode is chosen per call site.
pecl::ProgrammableDelay::Config strobe_delay(
    pecl::TimingMode mode = pecl::TimingMode::kStepped);

}  // namespace mgt::core::presets
