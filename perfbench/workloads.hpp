// The benchmark's workloads. Each one drives the library's public API the
// way a figure bench does, one user-visible measurement per op, and checks
// every result:
//
//   eye_prbs7_2g5    Fig 7  optical test bed PRBS7 eye + jitter decomposition
//   edge_jitter_2g5  Fig 9  single-edge jitter of the optical test bed
//   bathtub_2g5      Figs 15-17  mini-tester strobe bathtub at 2.5 Gbps
//
// Every op renders fresh stimulus: the systems keep drawing jitter from
// their own streams, and the PRBS workloads reprogram the LFSR seed from a
// stream derived from the workload seed. The library sees only those
// generated inputs. Every workload runs on one fixed board (component
// draws), so seeds vary the stimulus and noise but not the hardware.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// What one op produced that the benchmark checks or reports.
struct OpResult {
  /// FNV-1a digest of the op's deterministic outputs.
  std::uint64_t digest = 0;
  /// |headline number - paper's number|, in ps.
  double paper_err_ps = 0.0;
  /// Empty when the result lies in the figure bench's paper band.
  std::string band_failure;
};

/// Work counts the traced run records alongside its spans, summed over ops.
struct TraceCounts {
  std::uint64_t generated_bits = 0;  // bits through TestSystem::generate
  std::uint64_t render_samples = 0;  // grid samples delivered to sinks
  std::uint64_t window_edges = 0;    // transitions inside render windows
  std::uint64_t eye_samples = 0;     // samples folded by the eye sink
  std::uint64_t crossing_samples = 0;
  std::uint64_t acquisitions = 0;    // render.calls delta (bathtub)
  std::uint64_t loopback_samples = 0;  // render.samples delta (bathtub)
};

class Workload {
public:
  virtual ~Workload() = default;

  /// The public call a user makes for one measurement.
  virtual OpResult run_op() = 0;

  /// The same computation, broken into the public calls it is made of,
  /// each inside a span whose parent is `root`. Must produce the digest
  /// run_op() would.
  virtual OpResult run_traced_op(Tracer& tracer, std::int32_t root,
                                 TraceCounts& counts) = 0;
};

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds the workload's system (construction with its JTAG FLASH boot and
/// USB programming) and positions it in its noise streams by `seed`.
/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Independent seed for stream `stream` of a workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Current value of an obs counter, read by name (0 if nothing has
/// registered it).
std::uint64_t obs_counter(const char* name);

}  // namespace perfbench
