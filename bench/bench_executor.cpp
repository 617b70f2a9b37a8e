// Threaded-executor wall-clock benchmark — the repo's first *measured* (not
// simulated) performance trajectory. Runs the seed Cholesky and LU
// workloads through the real std::thread executor across processor counts,
// in both memory modes (baseline preallocation at TOT vs. active memory
// management at a fraction of TOT), and reports wall time, task throughput
// and protocol traffic. With --json it emits BENCH_executor.json so CI can
// accumulate per-PR numbers; numerics are validated against the reference
// factorizations on the first repeat so a fast-but-wrong data plane cannot
// pass unnoticed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "common.hpp"
#include "rapid/num/dispatch.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/rt/transport.hpp"
#include "rapid/support/exit_codes.hpp"
#include "rapid/support/str.hpp"
#include "rapid/verify/conformance.hpp"

using namespace rapid;

namespace {

struct RunStats {
  double best_ms = 0.0;
  double mean_ms = 0.0;
  double tasks_per_sec = 0.0;
  double residual = 0.0;
  /// First-repeat residual within the acceptance bound. A wrong result is
  /// a *finding* (kExitFindings), not an infrastructure error — the
  /// artifact still records the row so the regression is diagnosable.
  bool numerics_ok = true;
  rt::RunReport report;  // counters from the last repeat
  // Conformance verdict of the last traced repeat (-1 = not checked): the
  // traced guard row doubles as a protocol check, so a fast-but-
  // nonconformant run is visible in the benchmark artifact.
  int conformance_errors = -1;
  int conformance_warnings = -1;
};

/// Runs the plan `repeats` times on the threaded executor; wall time is the
/// executor's own measurement (threads only, no plan building). The first
/// repeat's numerics are checked against the dense reference.
RunStats run_threaded(const num::ShmWorkload& wl, std::int64_t capacity,
                      bool active, int repeats,
                      const rt::FaultPlan& faults = {}, bool checksum = true,
                      bool recovery = false, bool traced = false,
                      bool slab = true,
                      rt::TransportKind transport = rt::TransportKind::kInProc) {
  const rt::RunPlan& plan = wl.plan;
  rt::RunConfig config;
  config.params = machine::MachineParams::cray_t3d(plan.num_procs);
  config.capacity_per_proc = capacity;
  config.active_memory = active;
  config.slab_arena = slab;
  const rt::ObjectInit init = wl.make_init();
  const rt::TaskBody body = wl.make_body();
  rt::ThreadedOptions options;
  options.faults = faults;
  options.checksum = checksum;
  options.transport = transport;
  if (recovery) options.retry = RetryPolicy::standard();

  RunStats stats;
  stats.best_ms = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    // A fresh ring per repeat so each run's metrics stand alone; the trace
    // must outlive run(), so it is scoped to the repeat, not the executor.
    std::unique_ptr<obs::Trace> trace;
    if (traced) {
      trace = std::make_unique<obs::Trace>(plan.num_procs);
      options.trace = trace.get();
    }
    rt::ThreadedExecutor exec(plan, config, init, body, options);
    const rt::RunReport report = exec.run();
    if (!report.executable) {
      stats.report = report;
      return stats;  // caller escalates capacity
    }
    if (rep == 0) {
      stats.residual = wl.residual(exec);
      if (stats.residual >= 1e-8) {
        stats.numerics_ok = false;
        std::fprintf(stderr, "numerically wrong run, residual %g\n",
                     stats.residual);
      }
    }
    const double ms = report.parallel_time_us / 1000.0;
    stats.best_ms = std::min(stats.best_ms, ms);
    stats.mean_ms += ms / repeats;
    stats.report = report;
    if (traced && rep == repeats - 1) {
      verify::ConformanceOptions copts;
      copts.capacity_per_proc = active ? capacity : 0;
      copts.active_memory = active;
      copts.alignment = 8;  // rt::ProcMemory alignment
      copts.slab_arena = slab;
      copts.report = &stats.report;
      const verify::AuditReport conf =
          verify::check_conformance(plan, *trace, copts);
      stats.conformance_errors = conf.errors();
      stats.conformance_warnings = conf.warnings();
      if (!conf.clean()) {
        std::fprintf(stderr, "conformance findings on the traced row:\n%s",
                     conf.to_string().c_str());
      }
    }
  }
  stats.tasks_per_sec =
      static_cast<double>(stats.report.tasks_executed) / (stats.best_ms / 1e3);
  return stats;
}

JsonValue run_json(const std::string& workload, int procs, const char* mode,
                   std::int64_t capacity, const RunStats& s) {
  JsonValue r = JsonValue::object();
  r["workload"] = workload;
  r["procs"] = procs;
  r["mode"] = mode;
  r["transport"] = s.report.transport;
  r["capacity_bytes"] = capacity;
  r["best_ms"] = s.best_ms;
  r["mean_ms"] = s.mean_ms;
  r["tasks_per_sec"] = s.tasks_per_sec;
  r["tasks"] = s.report.tasks_executed;
  r["maps_avg"] = s.report.avg_maps();
  r["content_messages"] = s.report.content_messages;
  r["content_bytes"] = s.report.content_bytes;
  r["put_batches"] = s.report.put_batches;
  r["flag_messages"] = s.report.flag_messages;
  r["addr_packages"] = s.report.addr_packages;
  r["suspended_sends"] = s.report.suspended_sends;
  r["residual"] = s.residual;
  r["numerics_ok"] = s.numerics_ok;
  JsonValue rec = JsonValue::object();
  rec["nacks_sent"] = s.report.recovery.nacks_sent;
  rec["resends"] = s.report.recovery.resends;
  rec["flag_resends"] = s.report.recovery.flag_resends;
  rec["duplicate_suppressions"] = s.report.recovery.duplicate_suppressions;
  rec["checksum_rejections"] = s.report.recovery.checksum_rejections;
  rec["task_retries"] = s.report.recovery.task_retries;
  r["recovery"] = std::move(rec);
  if (s.conformance_errors >= 0) {
    r["conformance_errors"] = s.conformance_errors;
    r["conformance_warnings"] = s.conformance_warnings;
  }
  if (s.report.metrics) r["metrics"] = s.report.metrics->to_json();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("repeats", "3", "timed repetitions per configuration");
  flags.define("frac", "0.6",
               "active-memory capacity as a fraction of TOT (clamped up to "
               "MIN_MEM)");
  flags.define("workload", "both", "cholesky, lu, or both");
  flags.define("faults", "",
               "fault-injection preset for the active runs: addr, put, slow, "
               "or park (empty = injection off; see docs/FAULTS.md)");
  flags.define("fault_seed", "1", "seed for the --faults preset");
  flags.define("checksum", "1",
               "integrity-checked RMA (CRC32C on every put and address "
               "package); 0 isolates the checksum overhead vs the PR 2 "
               "data plane");
  flags.define("recovery", "0",
               "add an active+recovery row (bounded re-request recovery "
               "armed, RetryPolicy::standard) so one artifact shows the "
               "clean-run recovery overhead");
  flags.define("trace", "0",
               "add an active+tracing row (event tracer armed at the default "
               "ring size); the delta against the 'active' row is the "
               "tracing overhead and is recorded as trace_overhead_pct");
  flags.define("slab", "1",
               "slab-backed arena fast path on every run (the traced row's "
               "conformance replay matches the flag); 0 isolates the slab "
               "speedup");
  flags.define("kernels", "auto",
               "dense-kernel dispatch level: auto, ref, or blocked "
               "(isolates the micro-kernel speedup from runtime effects)");
  flags.define("transport", "inproc",
               "one-sided transport backend: inproc (threads) or shm (one "
               "OS process per paper-processor over POSIX shared memory); "
               "every JSON row records the backend it ran on");
  try {
    if (bench::parse_common_flags(flags, argc, argv)) return kExitOk;
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));
  const int repeats = std::max<int>(1, static_cast<int>(flags.get_int("repeats")));
  const double frac = flags.get_double("frac");
  const std::string which = flags.get("workload");
  const std::string fault_preset = flags.get("faults");
  const bool checksum = flags.get_int("checksum") != 0;
  const bool recovery = flags.get_int("recovery") != 0;
  const bool traced = flags.get_int("trace") != 0;
  const bool slab = flags.get_int("slab") != 0;
  const std::string kernels = flags.get("kernels");
  if (kernels == "ref") {
    num::set_kernel_level(num::KernelLevel::kRef);
  } else if (kernels == "blocked") {
    num::set_kernel_level(num::KernelLevel::kBlocked);
  } else if (kernels != "auto") {
    std::fprintf(stderr, "unknown --kernels level '%s'\n", kernels.c_str());
    return kExitInfraError;
  }
  rt::TransportKind transport = rt::TransportKind::kInProc;
  try {
    transport = rt::transport_from_string(flags.get("transport"));
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  rt::FaultPlan faults;  // disabled unless --faults names a preset
  if (!fault_preset.empty()) {
    faults = rt::FaultPlan::preset(
        fault_preset,
        static_cast<std::uint64_t>(flags.get_int("fault_seed")));
  }

  bench::print_header(
      "Executor benchmark: threaded (std::thread) wall time & throughput",
      "Cholesky (bcsstk24-like, RCP) and LU (goodwin-like, RCP)",
      cat("hardware_concurrency = ", std::thread::hardware_concurrency(),
          ", repeats = ", repeats, ", active capacity = max(MIN_MEM, ",
          frac, " * TOT)",
          fault_preset.empty()
              ? ""
              : cat(", FAULT INJECTION '", fault_preset,
                    "' on active runs — times are not comparable")));

  TextTable table({"workload", "p", "mode", "cap/TOT", "best ms", "mean ms",
                   "tasks/s", "maps", "msgs", "susp"});
  JsonValue runs = JsonValue::array();
  // CI gate (kExitFindings): a conformance error on a traced guard row or a
  // numerically wrong run fails the bench with the artifact intact.
  bool guard_failed = false;

  try {
  for (const std::int64_t p64 : flags.get_int_list("procs")) {
    const int p = static_cast<int>(p64);
    for (const auto& [name, workload] :
         {std::pair{"cholesky", "chol/bcsstk24-like"},
          std::pair{"lu", "lu/goodwin-like"}}) {
      if (which != name && which != "both") continue;
      const auto wl =
          num::build_shm_workload(num::seed_spec(name, scale, block, p));
      const std::int64_t tot = wl->tot_mem;
      const std::int64_t min = wl->min_mem;

      const RunStats base =
          run_threaded(*wl, tot, false, repeats, {}, checksum,
                       /*recovery=*/false, /*traced=*/false, slab, transport);
      // Fragmentation and 8-byte alignment put the practical floor above
      // MIN_MEM; escalate the capacity fraction until the run executes.
      double used_frac = frac;
      std::int64_t active_cap = 0;
      RunStats act;
      for (;; used_frac += 0.1) {
        active_cap = std::max(
            min, static_cast<std::int64_t>(used_frac * static_cast<double>(tot)));
        act = run_threaded(*wl, active_cap, true, repeats, faults,
                           checksum, /*recovery=*/false, /*traced=*/false,
                           slab, transport);
        if (act.report.executable) break;
        RAPID_CHECK(used_frac < 1.5,
                    cat("active run never became executable: ",
                        act.report.failure));
      }

      RunStats rec;
      if (recovery) {
        // Same plan and capacity with the full self-healing layer armed:
        // the delta against the "active" row is the recovery overhead on a
        // clean run (deadline bookkeeping; checksums are governed by
        // --checksum in both rows).
        rec = run_threaded(*wl, active_cap, true, repeats, faults,
                           checksum, /*recovery=*/true, /*traced=*/false,
                           slab, transport);
      }
      RunStats trc;
      if (traced) {
        // Same plan and capacity with the event tracer armed: the delta
        // against the "active" row is the tracing overhead (the guard for
        // the "within 10% of untraced" budget in docs/OBSERVABILITY.md).
        trc = run_threaded(*wl, active_cap, true, repeats, faults,
                           checksum, recovery, /*traced=*/true, slab,
                           transport);
        if (trc.conformance_errors > 0) guard_failed = true;
      }
      if (!base.numerics_ok || !act.numerics_ok || !rec.numerics_ok ||
          !trc.numerics_ok) {
        guard_failed = true;
      }
      std::vector<std::tuple<const char*, std::int64_t, const RunStats*>>
          rows = {{"baseline", tot, &base}, {"active", active_cap, &act}};
      if (recovery) rows.push_back({"act+rec", active_cap, &rec});
      if (traced) rows.push_back({"act+trace", active_cap, &trc});
      for (const auto& [mode, cap, sp] : rows) {
        const RunStats& s = *sp;
        const double cap_pct =
            100.0 * static_cast<double>(cap) / static_cast<double>(tot);
        table.add_row({workload, std::to_string(p), mode,
                       fixed(cap_pct, 0) + "%", fixed(s.best_ms, 2),
                       fixed(s.mean_ms, 2), fixed(s.tasks_per_sec, 0),
                       fixed(s.report.avg_maps(), 1),
                       std::to_string(s.report.content_messages),
                       std::to_string(s.report.suspended_sends)});
        JsonValue r = run_json(workload, p, mode, cap, s);
        if (sp == &trc) {
          const RunStats& untr = recovery ? rec : act;
          r["trace_overhead_pct"] =
              100.0 * (trc.best_ms - untr.best_ms) / untr.best_ms;
        }
        runs.push_back(std::move(r));
      }
    }
  }
  } catch (const rapid::Error& e) {
    // Infrastructure: the bench itself could not run (workload build, audit
    // precondition, escalation exhausted). Distinct from findings so CI can
    // tell a broken lane from a measured regression.
    std::fprintf(stderr, "bench_executor: %s\n", e.what());
    return kExitInfraError;
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nbaseline = all volatile space preallocated at TOT (original "
      "RAPID);\nactive = MAP-managed memory at the reduced capacity. Both "
      "run real\nfactorization kernels; residuals are checked against dense "
      "references.\n");

  JsonValue doc = JsonValue::object();
  doc["artifact"] = "bench_executor";
  doc["scale"] = scale;
  doc["block"] = static_cast<std::int64_t>(block);
  doc["repeats"] = repeats;
  doc["frac"] = frac;
  doc["faults"] = fault_preset;
  doc["checksum"] = checksum;
  doc["recovery"] = recovery;
  doc["trace"] = traced;
  doc["slab"] = slab;
  doc["transport"] = rt::to_string(transport);
  if (!fault_preset.empty()) {
    doc["fault_seed"] = flags.get_int("fault_seed");
  }
  doc["hardware_concurrency"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  doc["runs"] = std::move(runs);
  bench::write_json_file(flags, doc);
  if (guard_failed) {
    std::fprintf(stderr,
                 "bench_executor: guard failed (conformance errors on the "
                 "traced row or a numerically wrong run)\n");
    return kExitFindings;
  }
  return kExitOk;
}
