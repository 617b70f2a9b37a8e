// Table 5: average number of MAPs per processor, RCP vs MPO, for sparse
// Cholesky under 75/50/40/25 % of TOT. Cell format "rcp/mpo" as in the
// paper ("inf" where non-executable).
//
// Paper:
//   p    75%    50%        40%      25%
//   2    4/3    inf/inf    inf/inf  inf/inf
//   4    2/2    7.8/4      inf/7.3  inf/inf
//   8    2/2    3.3/3      5.3/4    inf/inf
//   16   2/2    3/2.9      3.9/3.3  8.3/6.6
//   32   2/2    2.22/2.19  3/3      5.6/5.2
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
      "Table 5: average #MAPs per processor, RCP vs MPO, sparse Cholesky",
      num::bcsstk24_like(scale).name,
      "cell = avg#MAPs(RCP) / avg#MAPs(MPO); 'inf' = non-executable");

  TextTable table({"p", "75%", "50%", "40%", "25%"});
  const double fractions[] = {0.75, 0.5, 0.4, 0.25};
  for (const auto p : procs) {
    const bench::Instance inst = bench::make_instance(
        "cholesky", "bcsstk24", scale, block, static_cast<int>(p));
    const auto rcp = bench::make_schedule(inst, bench::OrderingKind::kRcp);
    const auto mpo = bench::make_schedule(inst, bench::OrderingKind::kMpo);
    const auto tot = bench::tot_mem(inst, rcp);
    std::vector<std::string> row = {std::to_string(p)};
    for (const double f : fractions) {
      const auto capacity =
          static_cast<std::int64_t>(static_cast<double>(tot) * f);
      const bench::SimResult a = bench::run_sim(inst, rcp, capacity);
      const bench::SimResult b = bench::run_sim(inst, mpo, capacity);
      row.push_back(bench::maps_cell(a) + "/" + bench::maps_cell(b));
    }
    table.add_row(std::move(row));
  }
  bench::emit_table(flags, "table5_map_counts", table);
  std::printf(
      "\nexpected shape: MPO needs no more MAPs than RCP (usually fewer), "
      "and MAP counts\nfall as p grows and rise as memory shrinks.\n");
  return 0;
}
