// Ablation: address buffering (paper §3.2). The paper chooses a single
// address-package slot per processor pair — "we will not support address
// buffering in order to avoid the overhead of buffer managing" — accepting
// that a MAP can block on a slow consumer. This bench re-runs the Cholesky
// overhead experiment with 1, 2, 4 and effectively-unbounded slots to
// measure what that design choice costs (and show it costs little when RA
// is serviced at every state transition, which is the paper's protocol).
#include <cstdio>

#include "common.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

int main(int argc, char** argv) {
  Flags flags;
  if (bench::parse_common_flags(flags, argc, argv)) return 0;
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));
  const auto procs = flags.get_int_list("procs");

  bench::print_header(
      "Ablation: address-package buffering (mailbox slots per processor "
      "pair)",
      num::bcsstk24_like(scale).name,
      "parallel time at 50% of TOT (RCP), relative to the 1-slot design the "
      "paper uses");

  TextTable table({"p", "1 slot (paper)", "2 slots", "4 slots", "unbounded"});
  for (const auto p : procs) {
    const bench::Instance inst = bench::make_instance(
        "cholesky", "bcsstk24", scale, block, static_cast<int>(p));
    const auto schedule = bench::make_schedule(inst, bench::OrderingKind::kRcp);
    const auto capacity = static_cast<std::int64_t>(
        static_cast<double>(bench::tot_mem(inst, schedule)) * 0.5);
    const rt::RunPlan plan = rt::build_run_plan(inst.graph(), schedule);
    double base_time = 0.0;
    std::vector<std::string> row = {std::to_string(p)};
    for (std::int32_t slots : {1, 2, 4, 1 << 20}) {
      rt::RunConfig config;
      config.params = inst.params;
      config.capacity_per_proc = capacity;
      config.mailbox_slots = slots;
      const rt::RunReport r = rt::simulate(plan, config);
      if (!r.executable) {
        row.push_back("inf");
        continue;
      }
      if (slots == 1) {
        base_time = r.parallel_time_us;
        row.push_back(fixed(r.parallel_time_us / 1e3, 1) + " ms");
      } else {
        row.push_back(pct(r.parallel_time_us / base_time - 1.0));
      }
    }
    table.add_row(std::move(row));
  }
  bench::emit_table(flags, "ablation_mailbox", table);
  std::printf(
      "\nexpected shape: near-zero differences — because every blocking "
      "state services RA,\nsingle-slot mailboxes rarely stall, vindicating "
      "the paper's no-buffering choice.\n");
  return 0;
}
