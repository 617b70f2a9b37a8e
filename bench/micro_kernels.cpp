// Micro suite for the dense block kernels (the task bodies of the
// factorization workloads): GFLOP/s per kernel per block size, one row for
// the naive reference loops (*_ref) and one for the register-blocked SIMD
// path, so the dispatch thresholds in num/dispatch.hpp stay justified by
// data. Emits BENCH_kernels.json via --json like the table benches.
//
// Destructive kernels (potrf/trsm/getrf) re-copy their input every
// iteration; the copy cost is included identically in both rows, so the
// naive-vs-blocked ratio is still apples to apples.
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rapid/num/dispatch.hpp"
#include "rapid/num/kernels.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/file.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/json.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/str.hpp"
#include "rapid/support/table.hpp"

namespace {

using namespace rapid;

std::vector<double> random_vec(std::int64_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(len));
  for (auto& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

std::vector<double> random_spd(std::int64_t n, std::uint64_t seed) {
  auto a = random_vec(n * n, seed);
  // A := (A + A^T)/2 + n·I keeps it SPD without an O(n^3) product.
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < j; ++i) {
      const double avg = 0.5 * (a[j * n + i] + a[i * n + j]);
      a[j * n + i] = a[i * n + j] = avg;
    }
    a[j * n + j] = static_cast<double>(n) + 1.0;
  }
  return a;
}

struct Measurement {
  double ms = 0.0;      // best per-iteration wall time
  double gflops = 0.0;  // at that best time
};

// Runs `body` in calibrated batches until each timed rep spans >= min_ms,
// keeps the best of `repeats` reps.
Measurement measure(double flops, double min_ms, std::int64_t repeats,
                    const std::function<void()>& body) {
  using clock = std::chrono::steady_clock;
  std::int64_t iters = 1;
  double best_s = 1e30;
  for (std::int64_t rep = 0; rep < repeats;) {
    const auto t0 = clock::now();
    for (std::int64_t i = 0; i < iters; ++i) body();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s * 1e3 < min_ms) {
      iters *= 2;  // calibrate up, don't count this rep
      continue;
    }
    best_s = std::min(best_s, s / static_cast<double>(iters));
    ++rep;
  }
  return {best_s * 1e3, flops / best_s / 1e9};
}

struct Case {
  std::string kernel;
  std::int64_t block;
  double flops;
  std::function<void()> body;
};

// Builds the per-kernel benchmark bodies at block size b. The buffers live
// in the returned closures.
std::vector<Case> make_cases(std::int64_t b) {
  std::vector<Case> cases;

  {
    auto a = random_vec(b * b, 45);
    auto bb = random_vec(b * b, 46);
    auto c = random_vec(b * b, 47);
    cases.push_back({"gemm_minus_abt", b, num::flops_gemm(b, b, b),
                     [=]() mutable {
                       num::gemm_minus_abt(a.data(), b, bb.data(), b, c.data(),
                                           b, b, b, b);
                     }});
  }
  {
    auto a = random_vec(b * b, 48);
    auto bb = random_vec(b * b, 49);
    auto c = random_vec(b * b, 50);
    cases.push_back({"gemm_minus_ab", b, num::flops_gemm(b, b, b),
                     [=]() mutable {
                       num::gemm_minus_ab(a.data(), b, bb.data(), b, c.data(),
                                          b, b, b, b);
                     }});
  }
  {
    auto base = random_spd(b, 42);
    auto a = base;
    cases.push_back({"potrf_lower", b, num::flops_potrf(b),
                     [=]() mutable {
                       a = base;
                       num::potrf_lower(a.data(), b, b);
                     }});
  }
  {
    auto l = random_spd(b, 43);
    num::potrf_lower_ref(l.data(), b, b);
    auto panel = random_vec(b * b, 44);
    auto x = panel;
    cases.push_back({"trsm_right_lt", b, num::flops_trsm(b, b),
                     [=]() mutable {
                       x = panel;
                       num::trsm_right_lower_transpose(l.data(), b, x.data(),
                                                       b, b, b);
                     }});
  }
  {
    auto l = random_vec(b * b, 51);
    for (std::int64_t j = 0; j < b; ++j) l[j * b + j] = 1.0;
    auto panel = random_vec(b * b, 52);
    auto x = panel;
    cases.push_back({"trsm_left_ul", b, num::flops_trsm(b, b),
                     [=]() mutable {
                       x = panel;
                       num::trsm_left_unit_lower(l.data(), b, x.data(), b, b,
                                                 b);
                     }});
  }
  {
    const std::int64_t m = 4 * b;
    auto base = random_vec(m * b, 53);
    for (std::int64_t j = 0; j < b; ++j) base[j * m + j] += 4.0;
    auto a = base;
    std::vector<std::int32_t> piv(static_cast<std::size_t>(b));
    cases.push_back({"getrf_panel", b, num::flops_getrf_panel(m, b),
                     [=]() mutable {
                       a = base;
                       num::getrf_panel(a.data(), m, m, b, piv.data());
                     }});
  }
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("blocks", "16,32,64,128", "block sizes to sweep");
  flags.define("min_ms", "20", "minimum wall time per timed rep (ms)");
  flags.define("repeats", "3", "timed reps per case; best is reported");
  flags.define("json", "", "also write machine-readable results to this path");
  flags.parse(argc, argv);
  if (flags.help_requested()) return 0;

  const auto blocks = flags.get_int_list("blocks");
  const double min_ms = flags.get_double("min_ms");
  const std::int64_t repeats = flags.get_int("repeats");

  std::printf("== Kernel micro-benchmarks: naive loops vs blocked SIMD ==\n");
  std::printf("vector extensions compiled in: %s\n",
              num::kernels_vectorized() ? "yes" : "no (scalar fallback)");
  std::printf("levels forced via set_kernel_level; getrf panels are 4bxb\n\n");

  TextTable table({"kernel", "block", "level", "ms", "gflops", "speedup"});
  // ref GFLOP/s per (kernel, block), to fill the blocked rows' speedup cell.
  std::map<std::pair<std::string, std::int64_t>, double> ref_gflops;

  for (const std::int64_t b : blocks) {
    for (const num::KernelLevel level :
         {num::KernelLevel::kRef, num::KernelLevel::kBlocked}) {
      num::set_kernel_level(level);
      const bool blocked = level == num::KernelLevel::kBlocked;
      for (auto& c : make_cases(b)) {
        const Measurement m = measure(c.flops, min_ms, repeats, c.body);
        std::string speedup = "-";
        if (blocked) {
          const double base = ref_gflops[{c.kernel, b}];
          if (base > 0.0) speedup = fixed(m.gflops / base, 2) + "x";
        } else {
          ref_gflops[{c.kernel, b}] = m.gflops;
        }
        table.add_row({c.kernel, std::to_string(b),
                       blocked ? "blocked" : "naive", fixed(m.ms, 4),
                       fixed(m.gflops, 2), speedup});
      }
    }
  }
  num::set_kernel_level(num::KernelLevel::kAuto);

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nexpected shape: blocked rows pull ahead of naive as the block size "
      "grows; the dispatch thresholds sit where the curves cross.\n");

  JsonValue doc = JsonValue::object();
  doc["artifact"] = "micro_kernels";
  doc["vectorized"] = num::kernels_vectorized();
  JsonValue rows = JsonValue::array();
  for (const auto& row : table.rows()) {
    JsonValue obj = JsonValue::object();
    for (std::size_t c = 0; c < row.size(); ++c) {
      obj[table.header()[c]] = row[c];
    }
    rows.push_back(std::move(obj));
  }
  doc["rows"] = std::move(rows);
  const std::string path = flags.get("json");
  if (!path.empty()) {
    try {
      write_file(path, doc.dump());
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("\njson results written to %s\n", path.c_str());
  }
  return 0;
}
