#include "common.hpp"

#include <algorithm>
#include <cstdio>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/file.hpp"
#include "rapid/support/str.hpp"
#include "rapid/verify/auditor.hpp"

namespace rapid::bench {

const char* ordering_name(OrderingKind kind) {
  switch (kind) {
    case OrderingKind::kRcp:
      return "RCP";
    case OrderingKind::kMpo:
      return "MPO";
    case OrderingKind::kDts:
      return "DTS";
    case OrderingKind::kDtsMerged:
      return "DTS+merge";
  }
  return "?";
}

Instance make_instance(std::string_view app, std::string_view matrix,
                       double scale, sparse::Index block, int procs) {
  Instance inst;
  inst.num_procs = procs;
  inst.app = num::build_app(
      num::matrix_spec(app, matrix, scale, block, procs));
  inst.assignment = sched::owner_compute_tasks(inst.graph(), procs);
  inst.params = machine::MachineParams::cray_t3d(procs);
  return inst;
}

sched::Schedule make_schedule(const Instance& instance, OrderingKind kind,
                              std::optional<std::int64_t> volatile_budget) {
  switch (kind) {
    case OrderingKind::kRcp:
      return sched::schedule_rcp(instance.graph(), instance.assignment,
                                 instance.num_procs, instance.params);
    case OrderingKind::kMpo:
      return sched::schedule_mpo(instance.graph(), instance.assignment,
                                 instance.num_procs, instance.params);
    case OrderingKind::kDts:
      return sched::schedule_dts(instance.graph(), instance.assignment,
                                 instance.num_procs, instance.params);
    case OrderingKind::kDtsMerged:
      RAPID_CHECK(volatile_budget.has_value(),
                  "DTS+merge needs a volatile budget");
      return sched::schedule_dts(instance.graph(), instance.assignment,
                                 instance.num_procs, instance.params,
                                 volatile_budget);
  }
  RAPID_FAIL("unreachable");
}

SimResult run_sim(const Instance& instance, const sched::Schedule& schedule,
                  std::int64_t capacity, bool active_memory) {
  const rt::RunPlan plan = rt::build_run_plan(instance.graph(), schedule);
  // Auditor pre-check: a table entry is only trustworthy if the plan obeys
  // the Theorem 1 preconditions. Capacity findings are deliberately not
  // checked here — infeasible capacities are what the sweeps measure (the
  // "∞" cells), and the simulator reports them via RunReport::executable.
  {
    verify::AuditOptions audit_options;
    audit_options.capacity_per_proc = 0;
    const verify::AuditReport audit =
        verify::audit_plan(instance.graph(), schedule, plan, audit_options);
    RAPID_CHECK(audit.clean(), audit.to_string());
  }
  rt::RunConfig config;
  config.params = instance.params;
  config.capacity_per_proc = capacity;
  config.active_memory = active_memory;
  const rt::RunReport report = rt::simulate(plan, config);
  SimResult out;
  out.executable = report.executable;
  out.parallel_time_us = report.parallel_time_us;
  out.avg_maps = report.avg_maps();
  out.peak_bytes = report.peak_bytes();
  return out;
}

SimResult run_baseline(const Instance& instance,
                       const sched::Schedule& schedule) {
  return run_sim(instance, schedule, tot_mem(instance, schedule),
                 /*active_memory=*/false);
}

std::int64_t tot_mem(const Instance& instance,
                     const sched::Schedule& schedule) {
  return sched::analyze_liveness(instance.graph(), schedule).tot_mem();
}

std::int64_t min_mem(const Instance& instance,
                     const sched::Schedule& schedule) {
  return sched::analyze_liveness(instance.graph(), schedule).min_mem();
}

std::int64_t max_permanent_bytes(const Instance& instance,
                                 const sched::Schedule& schedule) {
  const auto liveness = sched::analyze_liveness(instance.graph(), schedule);
  std::int64_t worst = 0;
  for (const auto& p : liveness.procs) {
    worst = std::max(worst, p.permanent_bytes);
  }
  return worst;
}

std::string pt_increase_cell(const SimResult& base, const SimResult& run) {
  if (!run.executable) return "inf";
  const double ratio = run.parallel_time_us / base.parallel_time_us - 1.0;
  return fixed(ratio * 100.0, 1) + "%";
}

std::string maps_cell(const SimResult& run) {
  if (!run.executable) return "inf";
  return fixed(run.avg_maps, 2);
}

std::string compare_cell(const SimResult& a, const SimResult& b) {
  if (!a.executable && !b.executable) return "-";
  if (!a.executable) return "*";
  if (!b.executable) return "(A only)";
  const double ratio = b.parallel_time_us / a.parallel_time_us - 1.0;
  return fixed(ratio * 100.0, 1) + "%";
}

bool parse_common_flags(Flags& flags, int argc, const char* const* argv) {
  flags.define("scale", "1.0",
               "linear workload scale in (0,1]; 1.0 reproduces the paper's "
               "problem sizes (slower)");
  flags.define("block", "24", "block size for the 2-D/1-D partitions");
  flags.define("procs", "2,4,8,16,32", "processor counts to sweep");
  flags.define("json", "",
               "also write machine-readable results to this path");
  flags.parse(argc, argv);
  return flags.help_requested();
}

JsonValue table_to_json(const TextTable& table) {
  JsonValue rows = JsonValue::array();
  for (const auto& row : table.rows()) {
    JsonValue obj = JsonValue::object();
    for (std::size_t c = 0; c < row.size(); ++c) {
      obj[table.header()[c]] = row[c];
    }
    rows.push_back(std::move(obj));
  }
  return rows;
}

bool write_json_file(const Flags& flags, const JsonValue& doc) {
  const std::string path = flags.get("json");
  if (path.empty()) return false;
  write_file(path, doc.dump());
  std::printf("\njson results written to %s\n", path.c_str());
  return true;
}

void emit_table(const Flags& flags, const std::string& artifact,
                const TextTable& table) {
  std::fputs(table.render().c_str(), stdout);
  JsonValue doc = JsonValue::object();
  doc["artifact"] = artifact;
  doc["scale"] = flags.get_double("scale");
  doc["block"] = flags.get_int("block");
  doc["rows"] = table_to_json(table);
  write_json_file(flags, doc);
}

void print_header(const std::string& artifact, const std::string& workload,
                  const std::string& notes) {
  std::printf("== %s ==\n", artifact.c_str());
  std::printf("workload: %s\n", workload.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("\n");
}

}  // namespace rapid::bench
