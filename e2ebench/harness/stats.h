#ifndef E2EBENCH_HARNESS_STATS_H_
#define E2EBENCH_HARNESS_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/// Nearest-rank position (1-based) of the `p` percentile in `n` samples:
/// ceil(p * n), computed in integer per-myriad units so that, say, p90 of
/// 100 samples is rank 90 exactly.
inline size_t NearestRank(size_t n, double p) {
  const uint64_t per_myriad = static_cast<uint64_t>(std::llround(p * 10000));
  const uint64_t rank = (per_myriad * n + 9999) / 10000;
  return static_cast<size_t>(std::clamp<uint64_t>(rank, 1, n));
}

/// Nearest-rank percentile, `p` in (0, 1]; an empty sample gives 0.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Samples ranked strictly above the `p` percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

/// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99 that
/// keeps at least ten samples beyond it — the tail a sample of `n` can
/// support. 0 when even the median has fewer than ten samples beyond it.
inline double TailPercentile(size_t n) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_STATS_H_
