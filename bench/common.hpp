// Shared harness for the table/figure reproduction benches: builds the two
// factorization workloads, runs schedules through the simulator at capacity
// fractions of the no-recycling footprint TOT (exactly the paper's §5.1
// methodology), and renders paper-vs-measured tables.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rapid/machine/params.hpp"
#include "rapid/num/app.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/rt/report.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/schedule.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/json.hpp"
#include "rapid/support/table.hpp"

namespace rapid::bench {

enum class OrderingKind { kRcp, kMpo, kDts, kDtsMerged };

const char* ordering_name(OrderingKind kind);

/// One prepared problem instance on p processors.
struct Instance {
  int num_procs = 0;
  std::shared_ptr<const num::App> app;
  std::vector<graph::ProcId> assignment;
  machine::MachineParams params;

  const graph::TaskGraph& graph() const { return app->graph(); }
  std::int64_t sequential_space() const { return graph().sequential_space(); }
};

/// Builds `app` (cholesky: 2-D block mapping; lu: 1-D column blocks) over
/// the paper stand-in `matrix` at `scale`, through the workload registry
/// (num/shm_workloads.hpp).
Instance make_instance(std::string_view app, std::string_view matrix,
                       double scale, sparse::Index block, int procs);

/// Orders the instance's tasks. For kDtsMerged, volatile_budget must be the
/// per-processor budget available to volatiles (capacity − max permanent).
sched::Schedule make_schedule(const Instance& instance, OrderingKind kind,
                              std::optional<std::int64_t> volatile_budget = {});

struct SimResult {
  bool executable = false;
  double parallel_time_us = 0.0;
  double avg_maps = 0.0;
  std::int64_t peak_bytes = 0;
};

/// Simulates the schedule under `capacity` bytes per processor.
SimResult run_sim(const Instance& instance, const sched::Schedule& schedule,
                  std::int64_t capacity, bool active_memory = true);

/// The paper's comparison base: the same schedule with all volatile space
/// preallocated and no memory-management overhead (original RAPID).
SimResult run_baseline(const Instance& instance,
                       const sched::Schedule& schedule);

/// TOT for a schedule: the no-recycling per-processor footprint (§5.1).
std::int64_t tot_mem(const Instance& instance,
                     const sched::Schedule& schedule);
std::int64_t min_mem(const Instance& instance,
                     const sched::Schedule& schedule);
std::int64_t max_permanent_bytes(const Instance& instance,
                                 const sched::Schedule& schedule);

/// Formats "x.x%" / "∞" cells like the paper's tables.
std::string pt_increase_cell(const SimResult& base, const SimResult& run);
std::string maps_cell(const SimResult& run);
/// PT_b / PT_a − 1 as a percentage; "*" when only b runs; "-" when neither.
std::string compare_cell(const SimResult& a, const SimResult& b);

/// Common flags for the table benches (including --json); returns true if
/// --help was printed.
bool parse_common_flags(Flags& flags, int argc, const char* const* argv);

/// Prints a standard bench header naming the paper artifact reproduced.
void print_header(const std::string& artifact, const std::string& workload,
                  const std::string& notes);

/// Converts a table to an array of one JSON object per row, keyed by the
/// header cells.
JsonValue table_to_json(const TextTable& table);

/// Writes `doc` to the path given by --json; no-op (returns false) when the
/// flag is empty. Prints the destination on success.
bool write_json_file(const Flags& flags, const JsonValue& doc);

/// Prints the table to stdout and, when --json=<path> was given, writes
/// {"artifact": ..., "rows": [...]} to <path>. The standard tail call of
/// every table/figure bench.
void emit_table(const Flags& flags, const std::string& artifact,
                const TextTable& table);

}  // namespace rapid::bench
