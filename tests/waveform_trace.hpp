// The tests' oracle sink: stores every rendered sample (or every n-th), so a
// test can hold a render against another render of the same window, or
// keep a render dense beside a sink that would let it skip samples.
#pragma once

#include <cstddef>
#include <vector>

#include "signal/render.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// Stores samples, optionally decimated.
class WaveformTrace final : public WaveformSink {
public:
  explicit WaveformTrace(std::size_t decimation = 1)
      : decimation_(decimation == 0 ? 1 : decimation) {}

  void on_sample(Picoseconds t, Millivolts v) override {
    if (counter_++ % decimation_ == 0) {
      t_.push_back(t.ps());
      v_.push_back(v.mv());
    }
  }

  [[nodiscard]] const std::vector<double>& times_ps() const { return t_; }
  [[nodiscard]] const std::vector<double>& volts_mv() const { return v_; }
  [[nodiscard]] std::size_t size() const { return t_.size(); }

private:
  std::size_t decimation_;
  std::size_t counter_ = 0;
  std::vector<double> t_;
  std::vector<double> v_;
};

}  // namespace mgt::sig
