// PECL multiplexers and serializer trees.
//
// The central trick of the paper: the DLC's wide, moderate-speed outputs
// are serialized by PECL muxes into a few multi-Gbps signals. The optical
// test bed uses one 8:1 parallel-to-serial stage per channel; the mini-
// tester combines two 8:1 stages with a final 2:1 stage to reach 5 Gbps
// (Fig 15). Each stage contributes input-to-input skew (a fixed property
// of the part and its routing) and additive random jitter; the serial
// edge timing is referenced to the (jittered) RF clock.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault.hpp"
#include "signal/edge.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::pecl {

/// One mux stage, listed from the output (fastest, final) stage inward.
struct MuxStage {
  std::size_t fan_in = 8;
  /// Input-to-input deterministic skew, peak-to-peak.
  Picoseconds skew_pp{12.0};
  /// Additive random jitter of the stage.
  Picoseconds rj_sigma{1.0};
  Picoseconds prop_delay{200.0};
};

/// A tree of mux stages serializing DLC lanes to one multi-Gbps stream.
class SerializerTree {
public:
  struct Config {
    /// Stages from the final (output) 2:1/8:1 backwards; total lane count
    /// is the product of fan-ins.
    std::vector<MuxStage> stages;
    /// RJ of the serializing clock as seen at the retiming flip-flops
    /// (RF source + fanout path).
    Picoseconds clock_rj_sigma{1.2};
  };

  /// Per-input skews are drawn once at construction.
  SerializerTree(Config config, Rng rng);

  /// Attaches this tree's fault slice (kinds kMuxStuckAt / kMuxDropout;
  /// index = lane, tick = serial bit index, kAllIndices + severity = the
  /// affected lane fraction). An empty slice leaves serialize() untouched.
  void set_faults(fault::ComponentFaults faults);
  [[nodiscard]] const fault::ComponentFaults& faults() const { return faults_; }

  /// DLC lane that sources serial bit k (final-stage input varies fastest).
  [[nodiscard]] std::size_t lane_for_bit(std::size_t k) const {
    return k % total_lanes();
  }

  [[nodiscard]] std::size_t total_lanes() const;
  [[nodiscard]] Picoseconds total_prop_delay() const;

  /// Deterministic skew seen by serial bit k (sum over stages of the skew
  /// of the input that sources bit k).
  [[nodiscard]] Picoseconds skew_for_bit(std::size_t k) const;

  /// Peak-to-peak of the per-bit skew profile (the DJ this tree adds).
  [[nodiscard]] Picoseconds skew_profile_pp() const;

  /// Combined per-edge Gaussian sigma (clock RSS'd with every stage).
  [[nodiscard]] Picoseconds total_rj_sigma() const;

  /// Serializes `bits` at `rate`: bit k occupies
  /// [t0 + k*UI, t0 + (k+1)*UI) shifted by the tree's propagation delay,
  /// with each transition perturbed by skew and RJ.
  sig::EdgeStream serialize(const BitVector& bits, GbitsPerSec rate,
                            Picoseconds t0 = Picoseconds{0});

  /// Standard configurations used by the two projects.
  /// 8:1 single stage (optical test bed transmitter channel).
  static Config testbed_8to1();
  /// Two 8:1 stages + final 2:1 (mini-tester, Fig 15), reaching 5 Gbps.
  static Config minitester_16to1();

  // -- Parameterized N:1 depth builders -----------------------------------
  // The two presets above are hand-tuned to the 2005 parts; the builders
  // extend the same part family to arbitrary validated stage lists so the
  // 10G+ scenario matrix can sweep mux depth as an axis.

  /// Part characterization for one fan-in in [2, 64], scaled from the 2005
  /// family: wider muxes carry more input-to-input skew and propagation
  /// delay, faster (narrower) final stages run tighter. `skew_scale`
  /// stresses the deterministic skew (1.0 = nominal part).
  // mgtlint:allow(raw-double-param): skew_scale multiplies the nominal skew.
  static MuxStage stage_for_fan_in(std::size_t fan_in, double skew_scale = 1.0);

  /// Validated tree from an output-first fan-in list (e.g. {4, 8} is a
  /// final 4:1 fed by 8:1 stages -> 32 lanes). Each fan-in must be in
  /// [2, 64], at most 6 stages, total lanes at most 4096.
  static Config from_fan_ins(const std::vector<std::size_t>& fan_ins,
                             // mgtlint:allow(raw-double-param): as above.
                             double skew_scale = 1.0);

  /// Single-stage 16:1 serializer (arXiv 2401.15755, 5 Gbps class).
  // mgtlint:allow(raw-double-param): skew_scale multiplies the nominal skew.
  static Config serializer_16to1(double skew_scale = 1.0);

  /// 4:1 + 8:1, 32 DLC lanes: the Section-1 extension tree reaching
  /// 10 Gbps at 312.5 Mbps/lane. Values match the original extension
  /// study so historical bench rows stay comparable.
  // mgtlint:allow(raw-double-param): skew_scale multiplies the nominal skew.
  static Config extension_32lane(double skew_scale = 1.0);

private:
  /// Applies scheduled mux faults to the serial sequence: stuck lanes pin
  /// their bits, dropped-out lanes hold the previous serial value.
  [[nodiscard]] BitVector faulted_bits(const BitVector& bits) const;

  Config config_;
  Rng rng_;
  fault::ComponentFaults faults_;
  std::vector<std::vector<Picoseconds>> skews_;  // [stage][input]
};

}  // namespace mgt::pecl
