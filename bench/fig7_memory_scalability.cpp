// Figure 7: memory scalability (reduction ratio S1 / S_p) of the three
// scheduling heuristics for (a) sparse Cholesky and (b) sparse LU, p = 2..32,
// against the perfect ratio S1 / (S1/p) = p.
//
// Paper's qualitative content: DTS ≈ perfect; MPO clearly better than RCP;
// RCP far from scalable, especially for LU.
#include <cstdio>

#include "common.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

namespace {

void run_panel(const char* title, bool lu, double scale, sparse::Index block,
               const std::vector<std::int64_t>& procs, JsonValue& panels) {
  std::printf("--- %s ---\n", title);
  TextTable table({"p", "perfect (=p)", "RCP", "MPO", "DTS"});
  for (const auto p : procs) {
    const bench::Instance inst = bench::make_instance(
        lu ? "lu" : "cholesky", lu ? "goodwin" : "bcsstk24", scale, block,
        static_cast<int>(p));
    std::vector<std::string> row = {std::to_string(p),
                                    fixed(static_cast<double>(p), 2)};
    for (auto kind : {bench::OrderingKind::kRcp, bench::OrderingKind::kMpo,
                      bench::OrderingKind::kDts}) {
      const auto schedule = bench::make_schedule(inst, kind);
      const double ratio =
          static_cast<double>(inst.sequential_space()) /
          static_cast<double>(bench::min_mem(inst, schedule));
      row.push_back(fixed(ratio, 2));
    }
    table.add_row(std::move(row));
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
  const auto procs = flags.get_int_list("procs");

  bench::print_header("Figure 7: memory scalability S1 / S_p of RCP/MPO/DTS",
                      "(a) " + num::bcsstk24_like(scale).name + "   (b) " +
                          num::goodwin_like(scale).name,
                      "S_p = MIN_MEM of the schedule; perfect = S1/(S1/p) = p");
  JsonValue panels = JsonValue::object();
  run_panel("(a) sparse Cholesky", /*lu=*/false, scale, block, procs, panels);
  run_panel("(b) sparse LU with partial pivoting", /*lu=*/true, scale, block,
            procs, panels);
  std::printf(
      "expected shape: DTS tracks the perfect curve, MPO reduces memory "
      "substantially,\nRCP is not memory scalable (flat), worst for LU.\n");
  JsonValue doc = JsonValue::object();
  doc["artifact"] = "fig7_memory_scalability";
  doc["scale"] = scale;
  doc["block"] = static_cast<std::int64_t>(block);
  doc["panels"] = std::move(panels);
  bench::write_json_file(flags, doc);
  return 0;
}
