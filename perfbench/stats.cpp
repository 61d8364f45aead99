#include "stats.hpp"

#include <algorithm>

namespace perfbench {

namespace {

/// 1-based nearest rank: ceil(permille * n / 1000), at least 1.
std::size_t nearest_rank(std::size_t n, unsigned permille) {
  const std::size_t rank = (permille * n + 999) / 1000;
  return std::max<std::size_t>(rank, 1);
}

}  // namespace

double percentile(std::vector<double> samples, unsigned permille) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t idx = nearest_rank(samples.size(), permille) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 500);
}

std::size_t samples_beyond(std::size_t n, unsigned permille) {
  return n == 0 ? 0 : n - nearest_rank(n, permille);
}

unsigned tail_permille(std::size_t n, std::size_t min_beyond) {
  unsigned best = 0;
  for (unsigned p : {500u, 900u, 990u, 999u}) {
    if (samples_beyond(n, p) >= min_beyond) {
      best = p;
    }
  }
  return best;
}

}  // namespace perfbench
