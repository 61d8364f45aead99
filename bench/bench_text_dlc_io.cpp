// Section 2 claims about the Digital Logic Core: a 1-million-gate FPGA
// with ~200 general-purpose I/O, each capable of 800 Mbps but typically
// run at 300-400 Mbps for design margin — which is exactly why the PECL
// serializer trees are needed to reach multi-Gbps rates.
#include "bench_common.hpp"
#include "digital/bitstream.hpp"
#include "digital/dlc.hpp"
#include "pecl/mux.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace mgt;

namespace {

void run_reproduction(ReportTable& table) {
  dig::Dlc dlc;
  const dig::DlcSpec spec = dlc.spec();

  table.add_comparison("general-purpose I/O", "~200 signals",
                       std::to_string(spec.kIoCount),
                       spec.kIoCount >= 200 ? "OK (shape holds)"
                                            : "DEVIATES");
  table.add_comparison("I/O capability", "800 Mbps each",
                       fmt_unit(spec.kIoMaxMbps, "Mbps", 0),
                       bench::verdict(spec.kIoMaxMbps, 800.0, 1e-9));
  table.add_comparison("I/O design margin", "300-400 Mbps used",
                       fmt_unit(spec.kIoMarginMbps, "Mbps", 0),
                       bench::verdict_range(spec.kIoMarginMbps, 300.0,
                                            400.0));
  table.add_comparison("gate budget", "1 million gates (XC2V1000)",
                       std::to_string(spec.kGateBudget),
                       spec.kGateBudget == 1'000'000 ? "OK (shape holds)"
                                                     : "DEVIATES");

  // Why the mux trees are needed: lane rates per architecture.
  struct Case {
    const char* name;
    double rate_gbps;
    std::size_t lanes;
  };
  for (const Case& c : {Case{"testbed 2.5 Gbps via 8:1", 2.5, 8},
                        Case{"testbed 4.0 Gbps via 8:1", 4.0, 8},
                        Case{"mini-tester 5.0 Gbps via 2x8:1 + 2:1", 5.0, 16}}) {
    dlc.regs().write(dig::reg::kLaneCount,
                     static_cast<std::uint32_t>(c.lanes));
    const auto lane_rate = dlc.check_lane_rate(GbitsPerSec{c.rate_gbps});
    const bool margin = dlc.within_margin(GbitsPerSec{c.rate_gbps});
    table.add_comparison(c.name, "FPGA lane rate feasible",
                         fmt_unit(lane_rate.mbps(), "Mbps/lane", 0),
                         margin ? "OK (within margin)"
                                : "OK (margin consumed)");
  }

  // And the counter-example: 5 Gbps straight out of 8 lanes is impossible.
  dlc.regs().write(dig::reg::kLaneCount, 8);
  bool rejected = false;
  try {
    dlc.check_lane_rate(GbitsPerSec{8.0});
  } catch (const Error&) {
    rejected = true;
  }
  table.add_comparison("8 Gbps via 8:1 (1 Gbps/lane)", "beyond FPGA I/O",
                       rejected ? "rejected" : "accepted",
                       rejected ? "OK (shape holds)" : "DEVIATES");
}

void bm_dlc_prbs_generation(benchmark::State& state) {
  dig::Dlc dlc;
  dig::Bitstream bitstream;
  bitstream.design_name = "bench";
  dlc.configure(bitstream);
  dlc.regs().write(dig::reg::kPrbsOrder, 23);
  for (auto _ : state) {
    auto bits = dlc.expected_serial(65536);
    benchmark::DoNotOptimize(bits);
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(bm_dlc_prbs_generation);

void bm_serializer_edges(benchmark::State& state) {
  pecl::SerializerTree tree(pecl::SerializerTree::testbed_8to1(), Rng(1));
  dig::Dlc dlc;
  dig::Bitstream bitstream;
  bitstream.design_name = "bench";
  dlc.configure(bitstream);
  const auto bits = dlc.expected_serial(65536);
  for (auto _ : state) {
    auto edges = tree.serialize(bits, GbitsPerSec{2.5});
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(bm_serializer_edges);

}  // namespace

int main(int argc, char** argv) {
  auto table = bench::make_table(
      "Text (Section 2) - DLC I/O capability and serializer necessity");
  run_reproduction(table);
  return bench::finish(table, argc, argv);
}
