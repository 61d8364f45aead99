// Order statistics for the benchmark's timing samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `permille`
/// thousandths of the samples at or below it. 0 for an empty set.
double percentile(std::vector<double> samples, unsigned permille);

/// Nearest-rank median (percentile 500 permille).
double median(std::vector<double> samples);

/// Number of samples strictly above the nearest-rank percentile's rank.
std::size_t samples_beyond(std::size_t n, unsigned permille);

/// The reporting rule for tail latency: the highest of p50, p90, p99 and
/// p99.9 (in permille) that has at least `min_beyond` samples beyond it;
/// 0 when not even the median qualifies.
unsigned tail_permille(std::size_t n, std::size_t min_beyond = 10);

}  // namespace perfbench
