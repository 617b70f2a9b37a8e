// rapid_verify: audit a workload's schedule + run plan before anyone
// executes it. Builds the requested workload(s), schedules them, runs the
// static plan auditor (Theorem 1 preconditions + the Def. 6 capacity
// replay), prints the findings, and exits non-zero iff any ERROR finding
// survives — the inspector-stage gate the paper's runtime trusts implicitly.
//
//   ./rapid_verify                         # all four seed workloads
//   ./rapid_verify --workload=lu --ordering=mpo --capacity-frac=0.6
//   ./rapid_verify --workload=fig2 --capacity-frac=0  # executability bound
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/exit_codes.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/str.hpp"
#include "rapid/verify/auditor.hpp"

using namespace rapid;

int main(int argc, char** argv) {
  Flags flags;
  flags.define("workload", "all",
               "fig2|cholesky|lu|trisolve|nbody|all — what to audit");
  flags.define("ordering", "mpo", "task ordering: rcp|mpo|dts");
  flags.define("scale", "0.25", "workload scale in (0,1]");
  flags.define("block", "6", "block size for the matrix partitions");
  flags.define("procs", "4", "number of processors");
  flags.define("capacity-frac", "0",
               "per-proc capacity as a fraction of TOT (the paper's §5.1 "
               "sweep axis); 0 audits at the executability threshold "
               "MIN_MEM + MIN_MEM/8 (the first-fit fragmentation slack the "
               "test suite uses), negative skips the capacity replay");
  flags.define("mailbox-slots", "1", "address-package slots per pair");
  flags.define("strict", "false",
               "exit non-zero on warnings too (MBX-CROSS/REC-CROSS and "
               "friends), for CI lanes that want advisory findings to "
               "block");
  flags.define("verbose", "false", "print the full report even when clean");
  try {
    flags.parse(argc, argv);
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  if (flags.help_requested()) return kExitOk;

  std::vector<std::string> names;
  if (flags.get("workload") == "all") {
    names = {"cholesky", "lu", "trisolve", "nbody"};
  } else {
    names = {flags.get("workload")};
  }

  const int procs = static_cast<int>(flags.get_int("procs"));
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));
  const double capacity_frac = flags.get_double("capacity-frac");

  int total_errors = 0;
  int total_warnings = 0;
  for (const std::string& name : names) {
    try {
      // A registry workload, or the paper's Figure 2 DAG: a bare graph with
      // no numeric app, scheduled here.
      std::unique_ptr<num::ShmWorkload> workload;
      graph::TaskGraph fig2;
      sched::Schedule fig2_schedule;
      if (name == "fig2") {
        fig2 = graph::make_paper_figure2_graph();
        fig2_schedule =
            num::schedule_owner_compute(fig2, procs, flags.get("ordering"));
      } else {
        workload = num::build_shm_workload(num::seed_spec(
            name, scale, block, procs, flags.get("ordering")));
      }
      const graph::TaskGraph& graph = workload ? workload->graph() : fig2;
      const sched::Schedule& schedule =
          workload ? workload->schedule : fig2_schedule;
      const rt::RunPlan plan = rt::build_run_plan(graph, schedule);
      const auto liveness = sched::analyze_liveness(graph, schedule);

      verify::AuditOptions options;
      options.mailbox_slots =
          static_cast<std::int32_t>(flags.get_int("mailbox-slots"));
      if (capacity_frac < 0) {
        options.capacity_per_proc = 0;  // skip the replay
      } else if (capacity_frac == 0) {
        // MIN_MEM is the Def. 6 bound for an ideal allocator; first-fit
        // placement can fragment just above it (the paper's §6 "special
        // memory allocator" question). Audit at the same slacked threshold
        // the repo's executability tests use.
        options.capacity_per_proc =
            liveness.min_mem() + liveness.min_mem() / 8;
      } else {
        options.capacity_per_proc = static_cast<std::int64_t>(
            capacity_frac * static_cast<double>(liveness.tot_mem()));
      }

      const verify::AuditReport report =
          verify::audit_plan(graph, schedule, plan, options);
      std::printf("%-9s %s  (%d tasks, %d objects, %d procs, capacity %lld "
                  "bytes, MIN_MEM %lld, TOT %lld)\n",
                  name.c_str(), report.summary().c_str(),
                  graph.num_tasks(), graph.num_data(), procs,
                  static_cast<long long>(options.capacity_per_proc),
                  static_cast<long long>(liveness.min_mem()),
                  static_cast<long long>(liveness.tot_mem()));
      if (!report.clean() || flags.get_bool("verbose")) {
        std::printf("%s", report.to_string().c_str());
      }
      total_errors += report.errors();
      total_warnings += report.warnings();
    } catch (const rapid::Error& e) {
      std::fprintf(stderr, "%s: audit failed to run: %s\n", name.c_str(),
                   e.what());
      return kExitInfraError;
    }
  }
  if (total_errors > 0) return kExitFindings;
  if (flags.get_bool("strict") && total_warnings > 0) return kExitFindings;
  return kExitOk;
}
