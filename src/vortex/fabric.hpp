// The Data Vortex switching fabric (refs [4], [5]).
//
// Slot-synchronous simulation: every packet makes exactly one move per
// packet slot (descend toward the core, spiral within its cylinder, or
// eject at the core). Descents yield to traffic already circulating in
// the target cylinder — the deflection-routing discipline that replaces
// buffering in the optical implementation.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "vortex/node.hpp"
#include "vortex/packet.hpp"

namespace mgt::vortex {

/// Aggregate fabric statistics. Accounting invariant (checked by the
/// regression tests): every accepted packet is eventually exactly one of
/// delivered, dropped, or still in flight, and every offered packet is
/// either accepted or rejected — so
///   attempts  == injected + rejected_injections
///   injected  == delivered + dropped + in_flight()
struct FabricStats {
  std::uint64_t slots = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rejected_injections = 0;  // input blocked (node occupied/failed)
  std::uint64_t dropped = 0;              // lost to failed nodes
  std::uint64_t deflections = 0;          // non-progress moves
  std::uint64_t hops = 0;

  [[nodiscard]] std::uint64_t in_flight() const {
    return injected - delivered - dropped;
  }
};

class DataVortex {
public:
  explicit DataVortex(Geometry geometry);

  [[nodiscard]] const Geometry& geometry() const { return geometry_; }
  [[nodiscard]] const FabricStats& stats() const { return stats_; }

  /// Offers a packet at input port `port` (an outer-cylinder height) at the
  /// injection angle. Returns false when the entry node is occupied — the
  /// source must retry next slot (the fabric applies input backpressure
  /// rather than dropping).
  bool inject(Packet packet, std::size_t port);

  /// True when input `port`'s entry node is free this slot.
  [[nodiscard]] bool can_inject(std::size_t port) const;

  /// Injects with bounded input backpressure: when the entry node is busy
  /// the fabric is stepped (up to `max_wait_slots` times) to let traffic
  /// drain before retrying. Deliveries produced by those steps are
  /// appended to `deliveries` so no ejected packet is lost. Returns false
  /// when the entry never freed (persistently failed entry node).
  bool inject_with_retry(const Packet& packet, std::size_t port,
                         std::uint64_t max_wait_slots,
                         std::vector<Delivery>& deliveries);

  /// Attaches this fabric's fault slice (kind kNodeFailure; index = flat
  /// node index or kAllIndices with severity = failed fraction; tick =
  /// packet slot). The fabric reroutes around failed nodes: descents into
  /// them deflect, injection at a failed entry is rejected, and packets
  /// with no surviving move are dropped and accounted in stats().dropped.
  void set_faults(fault::ComponentFaults faults);
  [[nodiscard]] const fault::ComponentFaults& faults() const { return faults_; }

  /// True when node `n` is failed in the current slot. The severity-
  /// selected subsets are nested: every node failed at severity s is also
  /// failed at any s' > s, so degradation is monotonic in severity.
  [[nodiscard]] bool node_failed(const NodeAddress& n) const;

  /// Advances one packet slot; returns the packets delivered this slot.
  std::vector<Delivery> step();

  /// Runs until the fabric drains or `max_slots` elapse; appends
  /// deliveries. Returns true if fully drained.
  bool drain(std::vector<Delivery>& deliveries, std::uint64_t max_slots);

  /// Packets currently inside the fabric.
  [[nodiscard]] std::size_t occupancy() const;

  /// Current position of every in-flight packet (for tracing/debugging).
  [[nodiscard]] std::vector<std::pair<NodeAddress, std::uint64_t>> snapshot()
      const;

private:
  [[nodiscard]] std::optional<Packet>& slot_at(const NodeAddress& n);
  [[nodiscard]] const std::optional<Packet>& slot_at(const NodeAddress& n) const;

  /// True when the flat node index is failed at `slot`.
  [[nodiscard]] bool failed_at(std::size_t flat, std::uint64_t slot) const;

  Geometry geometry_;
  std::vector<std::optional<Packet>> nodes_;
  FabricStats stats_;
  fault::ComponentFaults faults_;
  std::size_t injection_angle_ = 0;
};

}  // namespace mgt::vortex
