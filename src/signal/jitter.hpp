// Jitter models.
//
// Total jitter is composed, as in scope practice, of random jitter (RJ,
// unbounded Gaussian), and deterministic jitter (DJ, bounded): dual-Dirac
// bimodal DJ and sinusoidal periodic jitter (PJ). Data-dependent jitter (DDJ/ISI) is NOT injected here — it emerges
// physically from the band-limited output stage acting on the edge stream.
#pragma once

#include <cstddef>

#include "signal/edge.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mgt::sig {

/// Configuration of an injected jitter process.
struct JitterSpec {
  /// Gaussian RJ standard deviation.
  Picoseconds rj_sigma{0.0};
  /// Dual-Dirac deterministic jitter, peak-to-peak (each edge lands at
  /// +dj/2 or -dj/2 with equal probability).
  Picoseconds dj_pp{0.0};
  /// Sinusoidal periodic jitter amplitude (0-to-peak) and frequency.
  Picoseconds pj_amplitude{0.0};
  Gigahertz pj_frequency{0.0};
};

/// Stateful jitter source bound to an RNG stream.
class JitterSource {
public:
  JitterSource(JitterSpec spec, Rng rng) : spec_(spec), rng_(rng) {}

  /// Timing offset for one edge at nominal time `t`.
  Picoseconds offset(Picoseconds t);

  /// Applies the jitter process to every transition of a stream.
  EdgeStream apply(const EdgeStream& in);

  [[nodiscard]] const JitterSpec& spec() const { return spec_; }

private:
  JitterSpec spec_;
  Rng rng_;
};

/// The timing stage of one part: every edge moves by the part's fixed
/// `delay` plus its additive Gaussian RJ, one draw from `rng` per edge, in
/// stream order (no draw at all when `rj_sigma` is 0), then
/// EdgeStream::retimed's spacing clamp.
EdgeStream delay_and_jitter(const EdgeStream& in, Picoseconds delay,
                            Picoseconds rj_sigma, Rng& rng);

/// Expected peak-to-peak spread of n samples of a zero-mean Gaussian with
/// standard deviation sigma (asymptotic extreme-value formula). This is what
/// a scope's "p-p jitter over n edges" converges to for pure RJ.
Picoseconds expected_gaussian_pp(std::size_t n, Picoseconds sigma);

/// Dual-Dirac total jitter estimate: TJ(pp over n edges) = DJ_pp + RJ p-p
/// spread over n edges.
Picoseconds expected_total_jitter_pp(std::size_t n, Picoseconds rj_sigma,
                                     Picoseconds dj_pp);

}  // namespace mgt::sig
