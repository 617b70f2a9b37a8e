// Table 8: solving a previously-unsolvable problem — sparse LU with partial
// pivoting on the largest instance (BCSSTK33 stand-in pattern), where the
// no-recycling baseline exceeds the per-node memory but active memory
// management executes. Reports PT, average #MAPs, and model MFLOPS on
// 16/32/64 processors.
//
// Paper (BCSSTK33, 6080 columns, 9.49 M nonzeros):
//   p    PT(s)   #MAPs   MFLOPS
//   16   41.8    5.63    353.1
//   32   25.9    4.09    569.2
//   64   23.3    3.78    634.0
#include <cstdio>

#include "common.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

int main(int argc, char** argv) {
  Flags flags;
  flags.define("scale", "1.0", "linear workload scale in (0,1]");
  flags.define("block", "24", "column-block width");
  flags.define("procs", "16,32,64", "processor counts");
  flags.define(
      "capacity_fraction", "0.55",
      "per-node capacity as a fraction of the p=16 no-recycling footprint "
      "(chosen so the baseline is non-executable, as in the paper)");
  flags.parse(argc, argv);
  if (flags.help_requested()) return 0;
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));
  const auto procs = flags.get_int_list("procs");
  const double cap_fraction = flags.get_double("capacity_fraction");

  // An unsymmetric instance on the BCSSTK33-like (largest) pattern scale.
  bench::print_header(
      "Table 8: large sparse LU with partial pivoting under a hard memory "
      "cap",
      num::goodwin_like(scale).name,
      "capacity per node fixed across p; baseline (no recycling) must not "
      "fit at the smallest p");

  // Fix the capacity from the smallest processor count's footprint.
  std::int64_t capacity = 0;
  {
    const bench::Instance inst = bench::make_instance(
        "lu", "goodwin", scale, block, static_cast<int>(procs.front()));
    const auto rcp = bench::make_schedule(inst, bench::OrderingKind::kRcp);
    capacity = static_cast<std::int64_t>(
        static_cast<double>(bench::tot_mem(inst, rcp)) * cap_fraction);
  }
  std::printf("fixed per-node capacity: %s\n\n",
              human_bytes(static_cast<double>(capacity)).c_str());

  TextTable table(
      {"p", "baseline", "PT (ms)", "#MAPs", "MFLOPS", "paper MFLOPS"});
  const double paper_mflops[] = {353.1, 569.2, 634.0};
  std::size_t row = 0;
  for (const auto p : procs) {
    const bench::Instance inst = bench::make_instance(
        "lu", "goodwin", scale, block, static_cast<int>(p));
    const auto rcp = bench::make_schedule(inst, bench::OrderingKind::kRcp);
    const bench::SimResult no_recycle =
        bench::run_sim(inst, rcp, capacity, /*active_memory=*/false);
    const bench::SimResult active = bench::run_sim(inst, rcp, capacity);
    const double flops = inst.graph().total_flops();
    std::string pt = "inf", maps = "inf", mflops = "-";
    if (active.executable) {
      pt = fixed(active.parallel_time_us / 1e3, 1);
      maps = fixed(active.avg_maps, 2);
      mflops = fixed(flops / active.parallel_time_us, 1);
    }
    table.add_row({std::to_string(p),
                   no_recycle.executable ? "fits" : "does NOT fit", pt, maps,
                   mflops,
                   row < 3 ? fixed(paper_mflops[row], 1) : std::string("-")});
    ++row;
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nexpected shape: the no-recycling baseline does not fit (the paper's "
      "'previously\nunsolvable' situation) while active memory management "
      "executes; MFLOPS grow and\n#MAPs shrink with p.\n");
  return 0;
}
