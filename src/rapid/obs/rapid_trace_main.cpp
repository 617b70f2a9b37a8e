// rapid_trace: run a seed workload under the event tracer and emit the
// observability artifacts — a Chrome trace_event JSON (open in Perfetto or
// chrome://tracing), a per-processor memory-occupancy CSV, and a text
// summary of state residencies, wait/put/MAP distributions and heap
// high-water marks vs. capacity and the paper's S1/p bound.
//
//   ./rapid_trace                                  # Cholesky, p=8, threaded
//   ./rapid_trace --workload=lu --procs=4 --executor=sim --out=lu_p4
//
// The run is also a self-check of the tracing plane: it asserts that every
// processor's trace carries all five protocol states (REC/EXE/SND/MAP/END),
// that MAP alloc/free events are present, and that the occupancy profile's
// high-water mark reconstructs the MAP engine's reported peak exactly.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/obs/chrome_trace.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/timeline.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/support/exit_codes.hpp"
#include "rapid/support/file.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/str.hpp"
#include "rapid/support/table.hpp"

namespace {

using namespace rapid;

/// The tracing plane's own acceptance checks (see ISSUE/docs): five states
/// per processor, MAP events present where MAPs ran, and an occupancy
/// high-water mark that equals the MAP engine's reported peak exactly.
/// Returns the findings instead of throwing: a broken trace is the thing
/// this tool checks (kExitFindings), not an infrastructure failure.
std::vector<std::string> check_trace(const obs::Trace& trace,
                                     const obs::OccupancyProfile& occ,
                                     const rt::RunReport& report) {
  std::vector<std::string> findings;
  const int p = trace.num_procs();
  std::int64_t map_allocs = 0;
  std::int64_t map_frees = 0;
  for (int q = 0; q < p; ++q) {
    bool state_seen[static_cast<std::size_t>(obs::ProtoState::kCount)] = {};
    for (const obs::TraceEvent& e : trace.events(q)) {
      if (e.kind == obs::EventKind::kStateEnter) {
        state_seen[static_cast<std::size_t>(e.a)] = true;
      } else if (e.kind == obs::EventKind::kMapAlloc) {
        ++map_allocs;
      } else if (e.kind == obs::EventKind::kMapFree) {
        ++map_frees;
      }
    }
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(obs::ProtoState::kCount); ++s) {
      if (!state_seen[s]) {
        findings.push_back(cat("processor ", q, " trace is missing state ",
                               obs::to_string(static_cast<obs::ProtoState>(s))));
      }
    }
    if (occ.high_water[static_cast<std::size_t>(q)] !=
        report.peak_bytes_per_proc[static_cast<std::size_t>(q)]) {
      findings.push_back(
          cat("processor ", q, " reconstructed high-water ",
              occ.high_water[static_cast<std::size_t>(q)],
              " != MAP engine peak ",
              report.peak_bytes_per_proc[static_cast<std::size_t>(q)]));
    }
  }
  if (map_allocs == 0) {
    findings.push_back("no MAP alloc events in an active-memory run");
  }
  if (map_frees == 0) {
    findings.push_back("no MAP free events in an active-memory run");
  }
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("workload", "cholesky", "cholesky|lu");
  flags.define("scale", "0.5", "workload scale in (0,1]");
  flags.define("block", "12", "block size for the matrix partition");
  flags.define("procs", "8", "number of processors");
  flags.define("frac", "0.6",
               "active-memory capacity as a fraction of TOT (escalated in "
               "0.1 steps until the run executes)");
  flags.define("executor", "threaded",
               "threaded (wall-clock) or sim (modeled time)");
  flags.define("events", "65536", "trace ring capacity per processor");
  flags.define("out", "rapid_trace_out",
               "output prefix: <out>.trace.json + <out>.occupancy.csv");
  try {
    flags.parse(argc, argv);
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  if (flags.help_requested()) return kExitOk;

  try {
  const int procs = static_cast<int>(flags.get_int("procs"));
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));
  const std::string executor = flags.get("executor");
  const bool threaded = executor == "threaded";
  RAPID_CHECK(threaded || executor == "sim",
              cat("unknown executor '", executor, "'"));

  const std::string name = flags.get("workload");
  RAPID_CHECK(name == "cholesky" || name == "lu",
              cat("unknown workload '", name, "' (expected cholesky|lu)"));
  const auto w =
      num::build_shm_workload(num::seed_spec(name, scale, block, procs));
  const graph::TaskGraph& graph = w->graph();
  const rt::RunPlan& plan = w->plan;
  const auto params = machine::MachineParams::cray_t3d(procs);
  const std::int64_t tot = w->tot_mem;
  const std::int64_t min = w->min_mem;
  const std::int64_t s1_per_p =
      graph.sequential_space() / std::max(procs, 1);

  obs::TraceConfig tcfg;
  tcfg.events_per_proc =
      static_cast<std::int32_t>(flags.get_int("events"));

  // First-fit fragmentation and alignment put the practical floor above
  // MIN_MEM; escalate the fraction until the run executes (same policy as
  // rapid_check).
  std::unique_ptr<obs::Trace> trace;
  rt::RunReport report;
  std::int64_t capacity = 0;
  for (double frac = flags.get_double("frac");; frac += 0.1) {
    capacity = std::max(min + min / 8,
                        static_cast<std::int64_t>(
                            frac * static_cast<double>(tot)));
    trace = std::make_unique<obs::Trace>(procs, tcfg);
    rt::RunConfig config;
    config.params = params;
    config.capacity_per_proc = capacity;
    if (threaded) {
      rt::ThreadedOptions options;
      options.trace = trace.get();
      rt::ThreadedExecutor exec(plan, config, w->make_init(),
                                w->make_body(), options);
      report = exec.run();
    } else {
      report = rt::simulate(plan, config, trace.get());
    }
    if (report.executable) break;
    RAPID_CHECK(frac < 1.5, cat("run never became executable: ",
                                report.failure));
  }

  const obs::OccupancyProfile occ = obs::build_occupancy(*trace);
  const std::vector<std::string> findings = check_trace(*trace, occ, report);

  obs::TraceLabels labels;
  for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
    labels.tasks.push_back(graph.task(t).name);
  }
  for (graph::DataId d = 0; d < graph.num_data(); ++d) {
    labels.objects.push_back(graph.data(d).name);
  }
  const std::string prefix = flags.get("out");
  write_file(prefix + ".trace.json",
             obs::chrome_trace(*trace, labels).dump());
  write_file(prefix + ".occupancy.csv", obs::occupancy_csv(occ));

  const obs::MetricsSummary& m = *report.metrics;
  std::printf(
      "rapid_trace: %s on %d procs (%s executor), %lld tasks, "
      "%.2f ms %s time\n",
      name.c_str(), procs, executor.c_str(),
      static_cast<long long>(report.tasks_executed),
      report.parallel_time_us / 1000.0, threaded ? "wall" : "modeled");
  std::printf(
      "capacity %lld bytes/proc (MIN_MEM %lld, TOT %lld, S1/p %lld)\n",
      static_cast<long long>(capacity), static_cast<long long>(min),
      static_cast<long long>(tot), static_cast<long long>(s1_per_p));

  TextTable table({"proc", "maps", "high-water", "cap%", "S1/p x", "events",
                   "dropped"});
  for (int q = 0; q < procs; ++q) {
    const std::int64_t hw = occ.high_water[static_cast<std::size_t>(q)];
    table.add_row(
        {std::to_string(q),
         std::to_string(report.maps_per_proc[static_cast<std::size_t>(q)]),
         std::to_string(hw),
         fixed(100.0 * static_cast<double>(hw) /
                   static_cast<double>(capacity),
               1),
         fixed(static_cast<double>(hw) /
                   static_cast<double>(std::max<std::int64_t>(s1_per_p, 1)),
               2),
         std::to_string(trace->recorded(q)),
         std::to_string(trace->dropped(q))});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nstate residency (summed across procs, ms):");
  for (std::size_t s = 0;
       s < static_cast<std::size_t>(obs::ProtoState::kCount); ++s) {
    std::printf(" %s %.2f",
                obs::to_string(static_cast<obs::ProtoState>(s)),
                m.state_residency_us[s] / 1000.0);
  }
  std::printf(
      "\nwaits: %lld (p50 %lld us, p99 %lld us)  puts: %lld (p50 %lld B)  "
      "map intervals: %lld (p50 %lld us)\n",
      static_cast<long long>(m.wait_us.count()),
      static_cast<long long>(m.wait_us.percentile(0.5)),
      static_cast<long long>(m.wait_us.percentile(0.99)),
      static_cast<long long>(m.put_bytes.count()),
      static_cast<long long>(m.put_bytes.percentile(0.5)),
      static_cast<long long>(m.map_interval_us.count()),
      static_cast<long long>(m.map_interval_us.percentile(0.5)));
  std::printf("wrote %s.trace.json and %s.occupancy.csv\n", prefix.c_str(),
              prefix.c_str());
  if (!findings.empty()) {
    for (const std::string& f : findings) {
      std::fprintf(stderr, "rapid_trace finding: %s\n", f.c_str());
    }
    return kExitFindings;
  }
  return kExitOk;
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "rapid_trace: %s\n", e.what());
    return kExitInfraError;
  }
}
