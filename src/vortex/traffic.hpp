// Traffic patterns and fairness analysis for the Data Vortex.
//
// The test bed's purpose is evaluating "various signaling protocols ...
// for the transmission of data packets" (Section 1); routing-level
// behavior depends heavily on the spatial traffic pattern. These are the
// standard interconnection-network patterns plus a run harness with
// per-port fairness accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "vortex/fabric.hpp"

namespace mgt::vortex {

enum class TrafficPattern {
  Uniform,     // destination uniformly random
  Hotspot,     // a fraction of traffic targets one hot port
  BitReverse,  // dest = bit-reversed source (static permutation)
  Neighbor,    // dest = source + 1 mod N
  Tornado,     // dest = source + N/2 - 1 mod N (worst-case adversarial)
};

/// Destination for a packet from `source` under the pattern.
std::uint32_t traffic_destination(TrafficPattern pattern, std::size_t source,
                                  std::size_t ports, Rng& rng,
                                  // mgtlint:allow(raw-double-param)
                                  double hotspot_fraction = 0.5,
                                  std::size_t hotspot_port = 0);

/// Result of a traffic run.
struct TrafficResult {
  double offered_load = 0.0;
  double throughput_per_port = 0.0;
  double mean_latency_slots = 0.0;
  double p99_latency_slots = 0.0;
  double mean_deflections = 0.0;
  double injection_block_rate = 0.0;
  /// Jain fairness index of per-destination delivered counts (1 = fair).
  double fairness = 0.0;
  /// Fraction of packets delivered out of injection order within their
  /// (source, destination) flow. Deflection routing reorders — a real
  /// protocol cost the test bed's framing has to absorb.
  double reorder_rate = 0.0;
};

/// Runs `slots` of the pattern at `load` on a fresh fabric. Each input
/// port draws from its own Rng stream derived from (seed, port), so
/// traffic generation parallelizes across ports (util::parallel_for) with
/// results identical at every MGT_THREADS setting; the fabric steps
/// serially.
/// `load` and `hotspot_fraction` are probabilities.
TrafficResult run_traffic(const Geometry& geometry, TrafficPattern pattern,
                          // mgtlint:allow(raw-double-param)
                          double load, std::size_t slots, std::uint64_t seed,
                          // mgtlint:allow(raw-double-param)
                          double hotspot_fraction = 0.5);

}  // namespace mgt::vortex
