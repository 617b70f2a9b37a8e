// Order statistics the benchmark reports. Every timing is summarised by its
// median and by a tail percentile chosen so that at least ten samples lie
// beyond it, which keeps the tail estimate from resting on one or two
// outliers when a run only has room for a few dozen solves.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Value at quantile q (0..1) by the nearest-rank rule on sorted samples:
/// the smallest sample with at least ceil(q * n) samples at or below it.
inline double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::int64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1, static_cast<std::int64_t>(v.size()));
  return v[static_cast<std::size_t>(rank - 1)];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// The tail percentile: the highest quantile q, capped at p99, that leaves
/// at least ten samples strictly beyond its rank. A run too short to have
/// one reports its median instead (`beyond` says how many samples lie past
/// the reported rank).
struct Tail {
  double quantile = 0.0;
  double value = 0.0;
  std::int64_t samples = 0;
  std::int64_t beyond = 0;
};

inline Tail tail(const std::vector<double>& v) {
  constexpr double kCap = 0.99;
  constexpr std::int64_t kMinBeyond = 10;
  Tail t;
  t.samples = static_cast<std::int64_t>(v.size());
  if (v.empty()) return t;
  const std::int64_t n = t.samples;
  const std::int64_t median_rank = std::min<std::int64_t>(n, n / 2 + 1);
  const auto cap_rank =
      static_cast<std::int64_t>(std::ceil(kCap * static_cast<double>(n) - 1e-9));
  const std::int64_t rank = std::clamp<std::int64_t>(
      std::min(n - kMinBeyond, cap_rank), median_rank, n);
  t.quantile = static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  t.value = nearest_rank(v, t.quantile);
  return t;
}

/// Length of the union of [begin, end) intervals (ns), clipped to
/// [lo, hi): the part of a parent span its child spans cover.
inline std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                            std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_b = 0, cur_e = 0;
  bool open = false;
  for (auto [b, e] : iv) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (!open || b > cur_e) {
      if (open) total += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_b;
  return total;
}

}  // namespace perfbench
