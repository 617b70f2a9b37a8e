// Self-test of the benchmark's order statistics and span self-time rule.
// Prints one line per failed check and exits non-zero if any failed.
#include <cstdio>
#include <vector>

#include "../src/stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  expect(nearest_rank(iota(100), 0.99) == 99.0, "p99 of 1..100 by nearest rank");
  expect(nearest_rank(iota(100), 1.0) == 100.0, "p100 is the maximum");
  expect(nearest_rank(iota(10), 0.5) == 5.0, "p50 of 1..10");

  // 2000 samples: p99 leaves 20 beyond it, so the cap applies.
  Tail t = tail(iota(2000));
  expect(t.quantile == 0.99 && t.value == 1980.0 && t.beyond == 20,
         "large runs report p99");
  // 200 samples: p99 would leave 2 beyond; the rule backs off to rank 190.
  t = tail(iota(200));
  expect(t.value == 190.0 && t.beyond == 10 && t.quantile == 0.95,
         "tail keeps ten samples beyond it");
  // 1000 samples: p99 leaves exactly 10 beyond.
  t = tail(iota(1000));
  expect(t.value == 990.0 && t.beyond == 10, "p99 with exactly ten beyond");
  // 14 samples: the rule would give rank 4, below the median; report the
  // upper median (rank 8).
  t = tail(iota(14));
  expect(t.value == 8.0 && t.beyond == 6, "short runs fall back to the median");
  t = tail(iota(15));
  expect(t.value == 8.0 && t.beyond == 7, "odd short run reports the median");
  t = tail({5.0});
  expect(t.value == 5.0 && t.beyond == 0, "one sample");
  t = tail({});
  expect(t.samples == 0 && t.value == 0.0, "empty input");

  expect(covered({{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25,
         "union of overlapping children");
  expect(covered({{0, 10}, {5, 15}}, 8, 12) == 4, "children clipped to parent");
  expect(covered({{30, 40}}, 0, 20) == 0, "child outside parent");
  expect(covered({}, 0, 20) == 0, "no children");

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
