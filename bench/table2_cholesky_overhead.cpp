// Table 2: effectiveness of the run-time execution scheme for sparse
// Cholesky — parallel-time increase and average #MAPs under 100/75/50/40 %
// of TOT (the no-recycling footprint), RCP ordering, p = 2..32. The
// comparison base is the same RCP schedule with 100 % memory and no memory
// management (original RAPID).
//
// Paper (BCSSTK15/24 average):
//   p    100%PT  75%PT  75%MAP  50%PT  50%MAP  40%PT
//   2    3.8%    7.7%   3.75    inf    inf     inf
//   4    12.0%   18.5%  2.00    33.6%  7.38    inf
//   8    12.4%   25.3%  2.00    33.7%  3.44    51.4%
//   16   17.6%   39.0%  2.00    45.7%  2.97    56.8%
//   32   22.0%   42.1%  1.98    61.3%  2.35    65.1%
#include <cstdio>

#include "common.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

int main(int argc, char** argv) {
  Flags flags;
  if (bench::parse_common_flags(flags, argc, argv)) return 0;
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));
  const auto procs = flags.get_int_list("procs");

  bench::print_header(
      "Table 2: active memory management overhead, sparse Cholesky (RCP)",
      num::bcsstk24_like(scale).name + " + " + num::bcsstk15_like(scale).name +
          " (averaged)",
      "PT increase vs the no-management baseline; 'inf' = non-executable "
      "(paper's infinity entries)");

  TextTable table({"p", "100% PT", "75% PT", "75% #MAP", "50% PT",
                   "50% #MAP", "40% PT", "40% #MAP"});
  for (const auto p : procs) {
    struct Acc {
      double pt_sum = 0;
      double map_sum = 0;
      int executable = 0;
      int total = 0;
    };
    Acc acc[4];  // 100, 75, 50, 40 %
    const double fractions[] = {1.0, 0.75, 0.5, 0.4};
    for (const char* matrix : {"bcsstk24", "bcsstk15"}) {
      const bench::Instance inst = bench::make_instance(
          "cholesky", matrix, scale, block, static_cast<int>(p));
      const auto schedule =
          bench::make_schedule(inst, bench::OrderingKind::kRcp);
      const auto tot = bench::tot_mem(inst, schedule);
      const bench::SimResult base = bench::run_baseline(inst, schedule);
      for (int f = 0; f < 4; ++f) {
        const auto capacity =
            static_cast<std::int64_t>(static_cast<double>(tot) * fractions[f]);
        const bench::SimResult r = bench::run_sim(inst, schedule, capacity);
        ++acc[f].total;
        if (r.executable) {
          ++acc[f].executable;
          acc[f].pt_sum += r.parallel_time_us / base.parallel_time_us - 1.0;
          acc[f].map_sum += r.avg_maps;
        }
      }
    }
    auto pt_cell = [&](int f) {
      if (acc[f].executable < acc[f].total) return std::string("inf");
      return fixed(acc[f].pt_sum / acc[f].executable * 100.0, 1) + "%";
    };
    auto map_cell = [&](int f) {
      if (acc[f].executable < acc[f].total) return std::string("inf");
      return fixed(acc[f].map_sum / acc[f].executable, 2);
    };
    table.add_row({std::to_string(p), pt_cell(0), pt_cell(1), map_cell(1),
                   pt_cell(2), map_cell(2), pt_cell(3), map_cell(3)});
  }
  bench::emit_table(flags, "table2_cholesky_overhead", table);
  std::printf(
      "\nexpected shape: degradation grows as memory shrinks and as p grows;"
      "\nsmall p + small memory is non-executable while large p stays "
      "executable\n(more volatile objects per processor give the MAPs more "
      "freedom).\n");
  return 0;
}
