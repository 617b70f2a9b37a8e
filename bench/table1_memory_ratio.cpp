// Table 1: average ratio of per-processor memory usage (permanent +
// volatile, no recycling — the original RAPID allocation discipline) over
// the lower bound S1/p, for sparse Cholesky, p = 2..16.
//
// Paper values:  p:      2     4     8     16
//                ratio:  1.88  3.19  4.64  5.72
#include <cstdio>

#include "common.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

int main(int argc, char** argv) {
  Flags flags;
  if (bench::parse_common_flags(flags, argc, argv)) return 0;
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));

  const double paper[] = {1.88, 3.19, 4.64, 5.72};
  bench::print_header(
      "Table 1: per-processor memory over S1/p, sparse Cholesky (RCP, no "
      "recycling)",
      num::bcsstk24_like(scale).name + " + " + num::bcsstk15_like(scale).name +
          " (averaged)",
      "ratio = avg over processors of (perm + volatile bytes) / (S1/p)");

  TextTable table({"#processors", "paper", "measured"});
  int row = 0;
  for (int p : {2, 4, 8, 16}) {
    double ratio_sum = 0.0;
    int count = 0;
    for (const char* matrix : {"bcsstk24", "bcsstk15"}) {
      const bench::Instance inst =
          bench::make_instance("cholesky", matrix, scale, block, p);
      const auto schedule =
          bench::make_schedule(inst, bench::OrderingKind::kRcp);
      const auto liveness = sched::analyze_liveness(inst.graph(), schedule);
      const double lower = static_cast<double>(inst.sequential_space()) / p;
      double avg_usage = 0.0;
      for (const auto& proc : liveness.procs) {
        avg_usage += static_cast<double>(proc.total_bytes);
      }
      avg_usage /= p;
      ratio_sum += avg_usage / lower;
      ++count;
    }
    table.add_row({std::to_string(p), fixed(paper[row++], 2),
                   fixed(ratio_sum / count, 2)});
  }
  bench::emit_table(flags, "table1_memory_ratio", table);
  std::printf(
      "\nexpected shape: the ratio grows with p — more processors mean more "
      "remote reads, hence more volatile replicas per processor.\n");
  return 0;
}
