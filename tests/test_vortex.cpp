// Tests for src/vortex: geometry/movement rules, deflection fabric
// invariants, and the electro-optic conversion chain.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "vortex/fabric.hpp"
#include "vortex/node.hpp"
#include "vortex/optics.hpp"
#include "vortex/packet.hpp"

namespace mgt::vortex {
namespace {

using mgt::BitVector;
using mgt::Error;
using mgt::Rng;

// --------------------------------------------------------------- geometry --

TEST(Geometry, ForHeights) {
  const auto g = Geometry::for_heights(16, 4);
  EXPECT_EQ(g.height_count, 16u);
  EXPECT_EQ(g.address_bits, 4u);
  EXPECT_EQ(g.cylinder_count, 5u);
  EXPECT_EQ(g.node_count(), 5u * 4u * 16u);
  EXPECT_THROW(Geometry::for_heights(12, 4), Error);  // not a power of two
  EXPECT_THROW(Geometry::for_heights(16, 1), Error);
}

TEST(Geometry, HopTogglesResponsibleHeightBit) {
  const auto g = Geometry::for_heights(16, 4);
  const NodeAddress from{1, 2, 0b1010};
  const auto to = g.hop(from);
  EXPECT_EQ(to.cylinder, 1u);
  EXPECT_EQ(to.angle, 3u);
  EXPECT_EQ(to.height, 0b1110u);  // bit for cylinder 1 (second MSB) toggled
}

TEST(Geometry, HopWrapsAngle) {
  const auto g = Geometry::for_heights(8, 4);
  const auto to = g.hop({0, 3, 0});
  EXPECT_EQ(to.angle, 0u);
}

TEST(Geometry, CoreHopKeepsHeight) {
  const auto g = Geometry::for_heights(8, 4);
  const auto to = g.hop({3, 1, 5});  // innermost cylinder of 4
  EXPECT_EQ(to.height, 5u);
  EXPECT_EQ(to.angle, 2u);
}

TEST(Geometry, DescendPreservesHeight) {
  const auto g = Geometry::for_heights(16, 4);
  const auto to = g.descend({2, 1, 9});
  EXPECT_EQ(to.cylinder, 3u);
  EXPECT_EQ(to.height, 9u);
  EXPECT_THROW((void)g.descend({4, 0, 0}), Error);
}

TEST(Geometry, FlatIndexIsBijective) {
  const auto g = Geometry::for_heights(8, 3);
  std::set<std::size_t> seen;
  for (std::size_t c = 0; c < g.cylinder_count; ++c) {
    for (std::size_t a = 0; a < g.angle_count; ++a) {
      for (std::size_t h = 0; h < g.height_count; ++h) {
        const auto idx = g.flat_index({c, a, h});
        EXPECT_LT(idx, g.node_count());
        EXPECT_TRUE(seen.insert(idx).second);
      }
    }
  }
}

TEST(Packet, HeaderBitIsMsbFirst) {
  Packet p;
  p.destination = 0b1010;
  EXPECT_TRUE(p.header_bit(0, 4));
  EXPECT_FALSE(p.header_bit(1, 4));
  EXPECT_TRUE(p.header_bit(2, 4));
  EXPECT_FALSE(p.header_bit(3, 4));
  EXPECT_THROW((void)p.header_bit(4, 4), Error);
}

// ----------------------------------------------------------------- fabric --

TEST(Fabric, SinglePacketReachesItsPort) {
  DataVortex fabric(Geometry::for_heights(16, 4));
  Packet p;
  p.id = 1;
  p.destination = 11;
  ASSERT_TRUE(fabric.inject(std::move(p), 3));

  std::vector<Delivery> out;
  ASSERT_TRUE(fabric.drain(out, 100));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].output_port, 11u);
  EXPECT_EQ(out[0].packet.id, 1u);
  // An uncontended packet never deflects.
  EXPECT_EQ(out[0].packet.deflections, 0u);
  // It needs at least one hop per cylinder.
  EXPECT_GE(out[0].packet.hops, 5u);
}

class AllPairs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllPairs, EverySourceReachesEveryDestination) {
  const std::size_t ports = GetParam();
  for (std::size_t src = 0; src < ports; ++src) {
    for (std::size_t dst = 0; dst < ports; ++dst) {
      DataVortex fabric(Geometry::for_heights(ports, 4));
      Packet p;
      p.id = src * ports + dst;
      p.destination = static_cast<std::uint32_t>(dst);
      ASSERT_TRUE(fabric.inject(std::move(p), src));
      std::vector<Delivery> out;
      ASSERT_TRUE(fabric.drain(out, 200)) << src << "->" << dst;
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].output_port, dst);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PortCounts, AllPairs, ::testing::Values(4, 8, 16));

TEST(Fabric, ConservationUnderLoad) {
  // Nothing lost, nothing duplicated, everything correctly routed.
  DataVortex fabric(Geometry::for_heights(16, 4));
  Rng rng(7);
  std::map<std::uint64_t, std::uint32_t> expected_port;
  std::uint64_t next_id = 1;
  std::size_t injected = 0;

  std::vector<Delivery> deliveries;
  for (int slot = 0; slot < 500; ++slot) {
    for (std::size_t port = 0; port < 16; ++port) {
      if (!rng.chance(0.4)) {
        continue;
      }
      Packet p;
      p.id = next_id++;
      p.destination = static_cast<std::uint32_t>(rng.below(16));
      const std::uint32_t dest = p.destination;
      if (fabric.inject(std::move(p), port)) {
        expected_port[next_id - 1] = dest;
        ++injected;
      }
    }
    auto out = fabric.step();
    deliveries.insert(deliveries.end(), out.begin(), out.end());
  }
  ASSERT_TRUE(fabric.drain(deliveries, 10000));

  EXPECT_EQ(deliveries.size(), injected);
  std::set<std::uint64_t> seen;
  for (const auto& d : deliveries) {
    EXPECT_TRUE(seen.insert(d.packet.id).second) << "duplicate packet";
    ASSERT_TRUE(expected_port.contains(d.packet.id));
    EXPECT_EQ(d.output_port, expected_port[d.packet.id]);
  }
  EXPECT_EQ(fabric.stats().injected, injected);
  EXPECT_EQ(fabric.stats().delivered, injected);
  EXPECT_EQ(fabric.occupancy(), 0u);
}

TEST(Fabric, LatencyAndDeflectionsGrowWithLoad) {
  double latency_at_load[2];
  double deflections_at_load[2];
  int i = 0;
  for (double load : {0.05, 0.9}) {
    DataVortex fabric(Geometry::for_heights(16, 4));
    Rng rng(11);
    std::uint64_t id = 1;
    std::vector<Delivery> deliveries;
    for (int slot = 0; slot < 400; ++slot) {
      for (std::size_t port = 0; port < 16; ++port) {
        if (rng.chance(load)) {
          Packet p;
          p.id = id++;
          p.destination = static_cast<std::uint32_t>(rng.below(16));
          fabric.inject(std::move(p), port);
        }
      }
      auto out = fabric.step();
      deliveries.insert(deliveries.end(), out.begin(), out.end());
    }
    fabric.drain(deliveries, 10000);
    double lat_sum = 0.0;
    double defl_sum = 0.0;
    for (const auto& d : deliveries) {
      lat_sum += static_cast<double>(d.latency_slots());
      defl_sum += static_cast<double>(d.packet.deflections);
    }
    latency_at_load[i] = lat_sum / static_cast<double>(deliveries.size());
    deflections_at_load[i] = defl_sum / static_cast<double>(deliveries.size());
    ++i;
  }
  EXPECT_GT(latency_at_load[1], latency_at_load[0]);
  EXPECT_GT(deflections_at_load[1], deflections_at_load[0] + 0.1);
}

TEST(Fabric, InjectionBackpressure) {
  DataVortex fabric(Geometry::for_heights(4, 2));
  Packet a;
  a.destination = 0;
  ASSERT_TRUE(fabric.can_inject(0));
  ASSERT_TRUE(fabric.inject(std::move(a), 0));
  EXPECT_FALSE(fabric.can_inject(0));
  Packet b;
  b.destination = 1;
  EXPECT_FALSE(fabric.inject(std::move(b), 0));
  EXPECT_EQ(fabric.stats().rejected_injections, 1u);
  fabric.step();
  EXPECT_TRUE(fabric.can_inject(0));
}

TEST(Fabric, BackpressureAccountingStaysExactUnderSustainedFullLoad) {
  // Regression for the inject/stats contract: offer a packet at EVERY port
  // on EVERY slot (sustained saturation, far past the fabric's capacity)
  // and require the books to balance the whole way through:
  //   attempts == injected + rejected_injections   (nothing vanishes at
  //                                                 the input)
  //   injected == delivered + dropped + occupancy  (nothing vanishes
  //                                                 inside)
  DataVortex fabric(Geometry::for_heights(16, 4));
  Rng rng(23);
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
  std::vector<Delivery> deliveries;
  for (int slot = 0; slot < 300; ++slot) {
    for (std::size_t port = 0; port < 16; ++port) {
      Packet p;
      p.id = attempts + 1;
      p.destination = static_cast<std::uint32_t>(rng.below(16));
      ++attempts;
      if (fabric.inject(std::move(p), port)) {
        ++accepted;
      }
    }
    auto out = fabric.step();
    deliveries.insert(deliveries.end(), out.begin(), out.end());
    // The invariants hold at every slot boundary, not just at the end.
    const FabricStats& s = fabric.stats();
    ASSERT_EQ(attempts, s.injected + s.rejected_injections) << slot;
    ASSERT_EQ(s.injected, s.delivered + s.dropped + fabric.occupancy())
        << slot;
    ASSERT_EQ(s.in_flight(), fabric.occupancy()) << slot;
  }
  ASSERT_TRUE(fabric.drain(deliveries, 10000));

  const FabricStats& stats = fabric.stats();
  EXPECT_EQ(stats.injected, accepted);
  EXPECT_EQ(attempts, stats.injected + stats.rejected_injections);
  // Saturation must actually exercise backpressure...
  EXPECT_GT(stats.rejected_injections, 0u);
  // ...and a healthy fabric never drops: every accepted packet comes out.
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.delivered, accepted);
  EXPECT_EQ(deliveries.size(), accepted);
  EXPECT_EQ(fabric.occupancy(), 0u);
}

TEST(Fabric, InvalidPortsThrow) {
  DataVortex fabric(Geometry::for_heights(8, 4));
  Packet p;
  p.destination = 9;  // out of range
  EXPECT_THROW(fabric.inject(std::move(p), 0), Error);
  Packet q;
  q.destination = 0;
  EXPECT_THROW(fabric.inject(std::move(q), 8), Error);
  EXPECT_THROW((void)fabric.can_inject(8), Error);
}

// ----------------------------------------------------------------- optics --

TEST(Optics, LinkBudgetArithmetic) {
  // 3 dBm launch; 3.5 + 3.5 dB combiner/splitter + 10 m at 0.25 dB/km,
  // against a -18 dBm detector.
  const auto budget = compute_link_budget();
  EXPECT_NEAR(budget.launch_dbm, 3.0, 1e-9);
  EXPECT_NEAR(budget.loss_db, 7.0025, 1e-9);
  EXPECT_NEAR(budget.received_dbm, -4.0025, 1e-9);
  EXPECT_NEAR(budget.margin_db(), 13.9975, 1e-9);
}

TEST(Optics, DetectorRejectsWeakSignal) {
  Photodetector detector(Rng(1));
  OpticalStream weak;
  weak.power_dbm = -30.0;
  EXPECT_FALSE(detector.detects(weak));
  EXPECT_THROW(detector.detect(weak), Error);
}

TEST(Optics, EndToEndPreservesData) {
  LaserDriver laser(LaserDriver::Config{}, Rng(2));
  const OpticalPath path;
  Photodetector detector(Rng(3));

  Rng rng(4);
  const auto bits = BitVector::random(1000, rng);
  const Picoseconds ui{400.0};
  const auto electrical = sig::EdgeStream::from_bits(bits, ui);

  const auto launched = laser.modulate(electrical);
  const auto received = path.propagate(launched);
  ASSERT_TRUE(detector.detects(received));
  const auto recovered = detector.detect(received);

  const Picoseconds total_delay =
      LaserDriver::kPropDelay + path.delay() + Photodetector::kPropDelay;
  EXPECT_EQ(recovered.to_bits(1000, ui, total_delay), bits);
  EXPECT_TRUE(recovered.well_formed());
}

TEST(Optics, PathDelayIsFiberGroupDelay) {
  // 10 m of fiber at 4900 ps/m.
  EXPECT_NEAR(OpticalPath().delay().ps(), 49000.0, 1e-6);
}

}  // namespace
}  // namespace mgt::vortex
