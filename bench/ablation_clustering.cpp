// Ablation: stage-one clustering — the paper's two options ("tasks are
// clustered to exploit data locality using DSC or the owner-compute rule").
// Compares the cyclic owner-compute mapping the experiments use against
// DSC + LPT on predicted makespan and memory, for both workloads.
#include <cstdio>

#include "common.hpp"
#include "rapid/sched/dsc.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

namespace {

void run_panel(const char* title, bool lu, double scale, sparse::Index block,
               const std::vector<std::int64_t>& procs, JsonValue& panels) {
  std::printf("--- %s ---\n", title);
  TextTable table({"p", "owner-compute makespan", "DSC+LPT makespan",
                   "owner-compute MIN_MEM", "DSC+LPT MIN_MEM",
                   "DSC clusters (raw->closed)"});
  for (const auto p : procs) {
    const int np = static_cast<int>(p);
    // Owner-compute path (the apps assign cyclic owners).
    const bench::Instance inst =
        bench::make_instance(lu ? "lu" : "cholesky",
                             lu ? "goodwin" : "bcsstk24", scale, block, np);
    const auto oc = bench::make_schedule(inst, bench::OrderingKind::kMpo);
    const auto oc_mem = bench::min_mem(inst, oc);
    // DSC path: recluster the same graph, remap owners, reorder.
    sched::DscStats stats;
    // The LPT mapping restamps owners, so it works on a copy of the graph.
    graph::TaskGraph graph = inst.graph();
    const sched::Clustering clusters =
        sched::dsc_clusters(graph, inst.params, &stats);
    const auto dsc_procs = sched::map_clusters_lpt(graph, clusters, np);
    const auto dsc = sched::schedule_mpo(graph, dsc_procs, np, inst.params);
    const auto dsc_mem = sched::analyze_liveness(graph, dsc).min_mem();
    table.add_row({std::to_string(p),
                   fixed(oc.predicted_makespan / 1e3, 1) + " ms",
                   fixed(dsc.predicted_makespan / 1e3, 1) + " ms",
                   human_bytes(static_cast<double>(oc_mem)),
                   human_bytes(static_cast<double>(dsc_mem)),
                   cat(stats.raw_clusters, "->", stats.closed_clusters)});
  }
  std::fputs(table.render().c_str(), stdout);
  panels[lu ? "lu" : "cholesky"] = bench::table_to_json(table);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("scale", "0.5", "workload scale in (0,1]");
  flags.define("block", "16", "block size");
  flags.define("procs", "4,8,16", "processor counts");
  flags.define("json", "",
               "also write machine-readable results to this path");
  flags.parse(argc, argv);
  if (flags.help_requested()) return 0;
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));
  const auto procs = flags.get_int_list("procs");

  bench::print_header(
      "Ablation: stage-one clustering — cyclic owner-compute vs DSC + LPT",
      "Cholesky + LU (MPO ordering in both paths)",
      "DSC zeroes critical-path edges, then owner-closure merges co-writer "
      "clusters");
  JsonValue panels = JsonValue::object();
  run_panel("(a) sparse Cholesky", /*lu=*/false, scale, block, procs, panels);
  run_panel("(b) sparse LU", /*lu=*/true, scale, block, procs, panels);
  std::printf(
      "expected shape: DSC trades some load balance for locality; for these "
      "regular\nfactorization graphs the cyclic owner-compute mapping (what "
      "the paper's\nexperiments use) is competitive or better, which is why "
      "the paper uses it.\n");
  JsonValue doc = JsonValue::object();
  doc["artifact"] = "ablation_clustering";
  doc["scale"] = scale;
  doc["block"] = static_cast<std::int64_t>(block);
  doc["panels"] = std::move(panels);
  bench::write_json_file(flags, doc);
  return 0;
}
