// Table 3: effectiveness of the run-time execution scheme for sparse LU
// with partial pivoting ("goodwin" stand-in), RCP ordering, p = 2..32.
//
// Paper:
//   p    100%PT  75%PT  75%MAP  50%PT  50%MAP  40%PT
//   2    0%      inf    inf     inf    inf     inf
//   4    0.4%    15.5%  3.50    inf    inf     inf
//   8    1%      11.1%  2.00    37.5%  5.63    inf
//   16   1.4%    18.3%  2.00    18.1%  2.94    32.2%
//   32   2.1%    13.8%  1.72    15.6%  2.38    16.7%
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
      "Table 3: active memory management overhead, sparse LU with partial "
      "pivoting (RCP)",
      num::goodwin_like(scale).name,
      "1-D column-block mapping; PT increase vs the no-management baseline");

  TextTable table({"p", "100% PT", "75% PT", "75% #MAP", "50% PT",
                   "50% #MAP", "40% PT", "40% #MAP"});
  const double fractions[] = {1.0, 0.75, 0.5, 0.4};
  for (const auto p : procs) {
    const bench::Instance inst = bench::make_instance(
        "lu", "goodwin", scale, block, static_cast<int>(p));
    const auto schedule = bench::make_schedule(inst, bench::OrderingKind::kRcp);
    const auto tot = bench::tot_mem(inst, schedule);
    const bench::SimResult base = bench::run_baseline(inst, schedule);
    std::vector<std::string> row = {std::to_string(p)};
    for (int f = 0; f < 4; ++f) {
      const auto capacity =
          static_cast<std::int64_t>(static_cast<double>(tot) * fractions[f]);
      const bench::SimResult r = bench::run_sim(inst, schedule, capacity);
      row.push_back(bench::pt_increase_cell(base, r));
      if (f > 0) row.push_back(bench::maps_cell(r));
    }
    table.add_row(std::move(row));
  }
  bench::emit_table(flags, "table3_lu_overhead", table);
  std::printf(
      "\nexpected shape: more 'inf' cells than Cholesky (1-D mapping makes "
      "fewer,\nlarger objects, so less allocation freedom) and lower PT "
      "overhead at large p\n(coarser tasks are less sensitive to management "
      "overhead).\n");
  return 0;
}
