#include "minitester/array.hpp"

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mgt::minitester {

TesterArray::TesterArray(Config config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  MGT_CHECK(config_.testers >= 1);
  MGT_CHECK(config_.defect_rate >= 0.0 && config_.defect_rate <= 1.0);
}

double TesterArray::wafer_time_s(std::size_t n_dies, std::size_t n_testers,
                                 double touchdown_overhead_s,
                                 double per_die_test_s) {
  MGT_CHECK(n_testers >= 1);
  const std::size_t touchdowns = (n_dies + n_testers - 1) / n_testers;
  // Sites within a touchdown run in parallel, so a touchdown costs one
  // die-test time plus the mechanical overhead.
  return static_cast<double>(touchdowns) *
         (touchdown_overhead_s + per_die_test_s);
}

TesterArray::WaferResult TesterArray::probe_wafer(std::size_t n_dies) {
  const obs::ProfileScope profile("minitester.probe_wafer");
  WaferResult out;
  out.dies = n_dies;
  out.touchdowns = (n_dies + config_.testers - 1) / config_.testers;
  out.total_time_s = wafer_time_s(n_dies, config_.testers,
                                  kTouchdownOverheadS, kPerDieTestS);

  static const Defect kDefects[] = {Defect::StuckLow, Defect::StuckHigh,
                                    Defect::SlowLead, Defect::WeakDrive};

  // Every die site is an independent task with its own Rng stream derived
  // from (seed, die): defect injection and the full signal-level BIST run
  // never touch shared state, so the sites execute concurrently — exactly
  // the array-of-testers parallelism of Fig 13 — with results identical at
  // every thread count.
  struct DieOutcome {
    bool fail = false;
    bool escape = false;
    bool overkill = false;
    bool masked = false;
  };
  const fault::ComponentFaults array_faults =
      config_.faults.component("array");
  std::vector<DieOutcome> outcomes(n_dies);
  util::parallel_for(n_dies, [&](std::size_t die) {
    // Dead-pin masking: a die lands on site (die % testers) during
    // touchdown (die / testers); when that site's pin or probe contact is
    // faulted, the die is skipped — the array keeps probing the rest —
    // and flagged for retest. Decided purely from (plan, site, touchdown),
    // so masking is identical at every thread count.
    if (array_faults.any()) {
      const std::size_t site_index = die % config_.testers;
      const std::uint64_t touchdown = die / config_.testers;
      if (array_faults.active(fault::FaultKind::kDeadPin, touchdown,
                              site_index) ||
          array_faults.active(fault::FaultKind::kProbeContactLoss, touchdown,
                              site_index)) {
        outcomes[die] = DieOutcome{.masked = true};
        return;
      }
    }
    Rng rng = util::task_rng(seed_, die);
    const bool defective = rng.chance(config_.defect_rate);
    MiniTester::Config site;
    site.dut.defect =
        defective ? kDefects[rng.below(std::size(kDefects))] : Defect::None;

    MiniTester tester(site, rng.next());
    tester.program_prbs(7, 0xACE1F00Dull + die);
    tester.start();
    const bool pass = tester.run_bist(config_.bist_bits).pass();

    outcomes[die] = DieOutcome{.fail = !pass,
                               .escape = defective && pass,
                               .overkill = !defective && !pass};
  });
  // Fixed-order reduction (die order) into the wafer totals.
  for (const DieOutcome& o : outcomes) {
    out.fails += o.fail ? 1 : 0;
    out.escapes += o.escape ? 1 : 0;
    out.overkills += o.overkill ? 1 : 0;
    out.masked += o.masked ? 1 : 0;
  }
  // Serial epilogue: totals come from the ordered reduction, so every value
  // is identical at any worker count. The span covers the wafer in its
  // natural tick domain — touchdown count accumulated across wafers.
  obs::record_span("minitester.wafer", touchdowns_done_,
                   touchdowns_done_ + out.touchdowns);
  touchdowns_done_ += out.touchdowns;
  obs::add_counter("minitester.wafers");
  obs::add_counter("minitester.dies", out.dies);
  obs::add_counter("minitester.fails", out.fails);
  obs::add_counter("minitester.escapes", out.escapes);
  obs::add_counter("minitester.overkills", out.overkills);
  obs::add_counter("minitester.masked", out.masked);
  return out;
}

}  // namespace mgt::minitester
