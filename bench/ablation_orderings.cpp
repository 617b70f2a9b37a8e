// Ablation: the space/time knob of DTS slice merging. Sweeping the merge
// budget from 0 (pure DTS, minimum memory, longest schedule) to infinity
// (single slice, pure critical-path behaviour) traces the trade-off curve
// the paper's Tables 6 and 7 sample at two points; RCP and MPO are shown as
// reference lines.
#include <cstdio>

#include "common.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

namespace {

void run_panel(const char* title, bool lu, double scale, sparse::Index block,
               int procs, JsonValue& panels) {
  const bench::Instance inst = bench::make_instance(
      lu ? "lu" : "cholesky", lu ? "goodwin" : "bcsstk24", scale, block,
      procs);
  std::printf("--- %s (%s, p = %d) ---\n", title,
              lu ? "goodwin-like" : "bcsstk24-like", procs);

  const auto rcp = bench::make_schedule(inst, bench::OrderingKind::kRcp);
  const auto mpo = bench::make_schedule(inst, bench::OrderingKind::kMpo);
  const double rcp_time = rcp.predicted_makespan;

  TextTable table({"merge budget", "MIN_MEM / (S1/p)", "makespan vs RCP"});
  const auto dts_ref = bench::make_schedule(inst, bench::OrderingKind::kDts);
  const auto s1 = inst.sequential_space();
  auto add_row = [&](const std::string& label, const sched::Schedule& s) {
    const auto mem = bench::min_mem(inst, s);
    table.add_row({label,
                   fixed(static_cast<double>(mem) * procs /
                             static_cast<double>(s1),
                         2),
                   pct(s.predicted_makespan / rcp_time - 1.0)});
  };
  add_row("RCP (reference)", rcp);
  add_row("MPO (reference)", mpo);
  const auto dts_min = bench::min_mem(inst, dts_ref);
  for (double budget_frac : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 4.0}) {
    const auto budget =
        static_cast<std::int64_t>(static_cast<double>(dts_min) * budget_frac);
    const auto merged =
        bench::make_schedule(inst, bench::OrderingKind::kDtsMerged, budget);
    add_row("DTS merge " + fixed(budget_frac, 2) + "*MIN_MEM(DTS)", merged);
  }
  std::fputs(table.render().c_str(), stdout);
  panels[lu ? "lu" : "cholesky"] = bench::table_to_json(table);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (bench::parse_common_flags(flags, argc, argv)) return 0;
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));

  bench::print_header(
      "Ablation: DTS slice-merge budget — the continuous space/time knob",
      "Cholesky + LU",
      "MIN_MEM/S1*p = per-processor memory relative to the S1/p lower bound "
      "(1.0 = perfect)");
  JsonValue panels = JsonValue::object();
  run_panel("(a) sparse Cholesky", /*lu=*/false, scale, block, 16, panels);
  run_panel("(b) sparse LU", /*lu=*/true, scale, block, 16, panels);
  std::printf(
      "expected shape: larger budgets monotonically trade memory for time, "
      "approaching\nRCP's makespan from above while MIN_MEM climbs from the "
      "DTS floor.\n");
  JsonValue doc = JsonValue::object();
  doc["artifact"] = "ablation_orderings";
  doc["scale"] = scale;
  doc["block"] = static_cast<std::int64_t>(block);
  doc["panels"] = std::move(panels);
  bench::write_json_file(flags, doc);
  return 0;
}
