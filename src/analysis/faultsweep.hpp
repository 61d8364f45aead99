// Fault-severity sweeps: BER / eye degradation versus injected severity.
//
// The robustness counterpart of the bathtub scan: instead of walking the
// strobe across the eye, walk a fault's severity from 0 (healthy) to 1
// (fully faulted) and record how the link's BER (and optionally the eye
// opening) degrades. A well-behaved fault model yields a monotonic curve
// for cumulative fault kinds (e.g. the fraction of stuck mux lanes);
// ber_monotonic_nondecreasing checks that property so regressions in the
// fault layer are caught mechanically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/ber.hpp"
#include "util/units.hpp"

namespace mgt::ana {

/// One point of a fault-severity sweep.
struct FaultSweepPoint {
  double severity = 0.0;
  double ber = 0.0;
  std::size_t errors = 0;
  std::size_t bits = 0;
  /// Optional eye metric at this severity (0 when no probe was supplied).
  Picoseconds eye_opening{0.0};
};

/// Runs one full measurement at a given fault severity and reports the BER.
/// The runner owns the whole rebuild-and-measure cycle (construct the
/// system with the severity-scaled FaultPlan, run traffic, compare bits) so
/// the sweep stays agnostic of which component is being degraded.
// mgtlint:allow(raw-double-param): severity is a fraction of full fault.
using FaultRunner = std::function<BerResult(double severity)>;

/// Optional probe returning the horizontal eye opening at a severity.
// mgtlint:allow(raw-double-param): severity is a fraction of full fault.
using EyeProbe = std::function<Picoseconds(double severity)>;

/// Sweeps `severities` (caller-chosen grid, typically 0 -> 1) through the
/// runner, recording BER per point; when `eye_probe` is non-null it is
/// invoked per point as well.
std::vector<FaultSweepPoint> fault_sweep(const std::vector<double>& severities,
                                         const FaultRunner& run,
                                         const EyeProbe& eye_probe = nullptr);

/// True when BER never decreases as severity increases, within `tolerance`
/// (absolute BER slack for counting noise at low error counts).
bool ber_monotonic_nondecreasing(const std::vector<FaultSweepPoint>& sweep,
                                 // mgtlint:allow(raw-double-param): a BER.
                                 double tolerance = 0.0);

/// One point of a link-layer fault sweep: how much of the injected frame
/// damage the ARQ masked at this severity. `raw_fer` is the per-transmission
/// damage rate on the wire; `residual_fer` is what the upper layer actually
/// lost after bounded retransmission.
struct LinkSweepPoint {
  double severity = 0.0;
  double raw_fer = 0.0;
  double residual_fer = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t retransmissions = 0;

  /// Exact accounting must close at every point.
  [[nodiscard]] bool accounting_closed() const {
    return offered == delivered + abandoned;
  }
};

/// Runs one full link transfer at a given severity. The runner owns the
/// rebuild-and-transfer cycle (fresh LinkChannel over a severity-scaled
/// FaultPlan, offer a payload stream, read stats()) so the sweep stays
/// agnostic of transport and protocol configuration.
// mgtlint:allow(raw-double-param): severity is a fraction of full fault.
using LinkRunner = std::function<LinkSweepPoint(double severity)>;

/// Sweeps `severities` through the link runner.
std::vector<LinkSweepPoint> link_fault_sweep(
    const std::vector<double>& severities, const LinkRunner& run);

/// One cell of a rate x mux-tree x timing-mode x fault-severity scenario
/// matrix (the 10G+ extension shmoo). Cells may arrive in any order; the
/// monotonicity checks below group them by the non-swept axes themselves.
struct ScenarioCell {
  GbitsPerSec rate{};       // data rate axis
  std::string tree;         // mux-tree id, e.g. "minitester_16to1"
  std::string timing_mode;  // "stepped" or "vernier"
  double severity = 0.0;    // skew-stress severity in [0, 1]
  UnitIntervals eye{};      // horizontal eye opening as a fraction of 1 UI
};

/// True when, for every (tree, timing-mode, severity) group, the eye
/// opening in UI never *increases* as the data rate rises. The mux skew
/// and jitter are fixed time quantities, so a faster rate can only consume
/// a larger UI fraction; `tol` absorbs measurement granularity.
bool eye_nonincreasing_in_rate(const std::vector<ScenarioCell>& cells,
                               UnitIntervals tol = UnitIntervals{0.0});

/// True when, for every (rate, tree, timing-mode) group, the eye opening
/// never increases as the skew-stress severity grows.
bool eye_nonincreasing_in_severity(const std::vector<ScenarioCell>& cells,
                                   UnitIntervals tol = UnitIntervals{0.0});

/// The ARQ acceptance property: at every nonzero-severity point the sweep's
/// residual (post-ARQ) FER is strictly below the raw injected FER, and the
/// offered == delivered + abandoned accounting closes everywhere. Points
/// where the channel injected no damage at all (raw_fer == 0) must also be
/// residual-free.
bool residual_below_raw(const std::vector<LinkSweepPoint>& sweep);

}  // namespace mgt::ana
