#include "pecl/sampler.hpp"

#include "signal/render.hpp"
#include "util/error.hpp"

namespace mgt::pecl {

std::vector<Picoseconds> PeclSampler::strobe_schedule(Picoseconds first,
                                                      Picoseconds period,
                                                      std::size_t count) {
  MGT_CHECK(period.ps() > 0.0);
  std::vector<Picoseconds> strobes;
  strobes.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    strobes.push_back(
        Picoseconds{first.ps() + static_cast<double>(k) * period.ps()});
  }
  return strobes;
}

PeclSampler::Capture PeclSampler::capture(
    const sig::EdgeStream& stream, const sig::FilterChain& chain,
    const sig::PeclLevels& levels, const std::vector<Picoseconds>& strobes) {
  MGT_CHECK(!strobes.empty(), "capture needs at least one strobe");

  sig::StrobeSampler::Config sampler_config{
      .threshold = sig::attenuated(levels, chain.gain()).midpoint(),
      .strobe_rj_sigma = kStrobeRjSigma,
      .aperture = kAperture,
  };
  sig::StrobeSampler sampler(strobes, sampler_config, rng_.fork());

  // Pad generously: RJ can move strobes, and the chain needs settling.
  const Picoseconds pad{2000.0};
  const Picoseconds t_begin = strobes.front() - pad;
  const Picoseconds t_end = strobes.back() + pad;

  sig::RenderConfig render_config{.levels = levels,
                                  .sample_step = kSampleStep};
  sig::render(stream, chain, render_config, t_begin, t_end, {&sampler});
  MGT_CHECK(sampler.missed() == 0, "strobes fell outside the render window");

  Capture out;
  out.bits = sampler.bits();
  out.analog = sampler.analog();
  return out;
}

}  // namespace mgt::pecl
