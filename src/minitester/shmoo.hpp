// Shmoo plots: 2D pass/fail characterization maps.
//
// Production bring-up of a tester like this sweeps two parameters (strobe
// position vs data rate, strobe vs amplitude, ...) and records BER at each
// grid point; the "shmoo" shape shows the operating region.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace mgt::minitester {

/// A 2D sweep result: ber[yi][xi] for ys.size() rows of xs.size() columns.
struct Shmoo {
  std::string x_label;
  std::string y_label;
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::vector<double>> ber;

  /// Fraction of grid points at or below `pass_threshold` (a BER).
  // mgtlint:allow(raw-double-param): a BER.
  [[nodiscard]] double pass_fraction(double pass_threshold) const;

  /// ASCII rendering: '.' pass, 'x' marginal (< 10x threshold), '#' fail.
  // mgtlint:allow(raw-double-param): a BER.
  [[nodiscard]] std::string ascii_art(double pass_threshold) const;
};

/// Runs a generic shmoo: `measure(x, y)` returns the BER at that point.
/// Grid points are independent tasks executed via util::parallel_for, so
/// `measure` must be a pure, thread-safe function of (x, y): build a fresh
/// tester (seeded from x/y or a constant) inside the lambda rather than
/// capturing one by reference.
Shmoo run_shmoo(std::string x_label, std::vector<double> xs,
                std::string y_label, std::vector<double> ys,
                // mgtlint:allow(raw-double-param): axes in the labels' units
                const std::function<double(double x, double y)>& measure);

}  // namespace mgt::minitester
