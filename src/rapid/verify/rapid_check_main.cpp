// rapid_check: execution-conformance gate. Runs seed workloads under the
// event tracer (threaded and/or simulated), replays each trace through the
// vector-clock happens-before engine and the conformance rules (HB-RACE /
// CONF-STATE / CONF-MSG / CONF-CAP, see verify/conformance.hpp), checks
// every threaded run's numerics against the dense reference (NUM-RESIDUAL),
// optionally sweeps the recovery fault presets across seeds, and runs the
// litmus model checker over the lock-free primitives. Exits non-zero iff
// any ERROR finding survives (or, with --strict, any warning), or a litmus
// variant disagrees with its expectation.
//
//   ./rapid_check                                   # cholesky+lu, both executors
//   ./rapid_check --workload=lu --executor=sim
//   ./rapid_check --faults=all --seeds=32 --json=findings.json
//   ./rapid_check --litmus-only                     # just the model checker
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/faults.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/rt/transport.hpp"
#include "rapid/support/exit_codes.hpp"
#include "rapid/support/file.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/json.hpp"
#include "rapid/support/str.hpp"
#include "rapid/verify/conformance.hpp"
#include "rapid/verify/litmus.hpp"

namespace {

using namespace rapid;

struct CheckedRun {
  std::string label;
  verify::AuditReport report;
};

JsonValue finding_json(const verify::Finding& f) {
  JsonValue j = JsonValue::object();
  j["rule"] = f.rule;
  j["severity"] = f.severity == verify::Severity::kError     ? "error"
                  : f.severity == verify::Severity::kWarning ? "warning"
                                                             : "info";
  if (f.task != graph::kInvalidTask) j["task"] = f.task;
  if (f.object != graph::kInvalidData) j["object"] = f.object;
  if (f.proc != graph::kInvalidProc) j["proc"] = f.proc;
  if (f.position >= 0) j["position"] = f.position;
  j["message"] = f.message;
  if (!f.hint.empty()) j["hint"] = f.hint;
  return j;
}

/// A threaded run whose factor residual against the dense reference is not
/// below this bound computed a wrong answer.
constexpr double kResidualBound = 1e-8;

/// NUM-RESIDUAL: the numerics half of the gate. A data-plane bug the
/// trace cannot see (a payload torn by an early publication, say) still
/// shows up as a wrong factor.
void check_residual(double residual, verify::AuditReport* report) {
  if (residual < kResidualBound) return;
  report->findings.push_back(
      {.rule = "NUM-RESIDUAL",
       .message = cat("residual ", residual,
                      " against the dense reference is not below ",
                      kResidualBound),
       .hint = "the run completed but computed a wrong result: a payload "
               "was read before its bytes landed, or a region was reused "
               "while still live"});
}

void print_report(const CheckedRun& run) {
  std::printf("%-42s %s\n", run.label.c_str(),
              run.report.summary().c_str());
  if (run.report.errors() > 0 || run.report.warnings() > 0) {
    std::printf("%s", run.report.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("workload", "all", "cholesky|lu|all");
  flags.define("executor", "both", "threaded|sim|both");
  flags.define("transport", "inproc",
               "one-sided transport for the threaded executor: inproc|shm "
               "(shm forks one worker process per paper-processor)");
  flags.define("scale", "0.4", "workload scale in (0,1]");
  flags.define("block", "10", "block size for the matrix partition");
  flags.define("procs", "4", "number of processors");
  flags.define("frac", "0.6",
               "active-memory capacity as a fraction of TOT (escalated in "
               "0.1 steps until the run executes)");
  flags.define("events", "262144", "trace ring capacity per processor");
  flags.define("faults", "none",
               "recovery fault sweep: none|addr|put|slow|park|corrupt|dup|"
               "all (threaded executor, recovery on)");
  flags.define("seeds", "8", "seeds per fault preset");
  flags.define("slab", "true",
               "run with the slab-backed arena fast path (the conformance "
               "replay matches the flag)");
  flags.define("litmus", "true",
               "model-check the bell/mailbox/publication primitives");
  flags.define("litmus-only", "false", "skip the trace runs entirely");
  flags.define("strict", "false", "exit non-zero on warnings too");
  flags.define("json", "", "write the findings as JSON to this path");
  try {
    flags.parse(argc, argv);
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  if (flags.help_requested()) return kExitOk;

  const int procs = static_cast<int>(flags.get_int("procs"));
  const double scale = flags.get_double("scale");
  const auto block = static_cast<sparse::Index>(flags.get_int("block"));
  const bool strict = flags.get_bool("strict");
  rt::TransportKind transport = rt::TransportKind::kInProc;
  try {
    transport = rt::transport_from_string(flags.get("transport"));
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  const bool shm = transport == rt::TransportKind::kShm;
  const auto params = machine::MachineParams::cray_t3d(procs);

  std::vector<std::string> workloads;
  if (flags.get("workload") == "all") {
    workloads = {"cholesky", "lu"};
  } else {
    workloads = {flags.get("workload")};
  }
  std::vector<std::string> executors;
  if (flags.get("executor") == "both") {
    executors = {"threaded", "sim"};
  } else {
    executors = {flags.get("executor")};
  }
  std::vector<std::string> fault_presets;
  if (flags.get("faults") == "all") {
    fault_presets = {"addr", "put", "slow", "park", "corrupt", "dup"};
  } else if (flags.get("faults") != "none") {
    fault_presets = {flags.get("faults")};
  }

  obs::TraceConfig tcfg;
  tcfg.events_per_proc = static_cast<std::int32_t>(flags.get_int("events"));

  std::vector<CheckedRun> runs;
  std::int64_t total_errors = 0;
  std::int64_t total_warnings = 0;

  try {
    if (!flags.get_bool("litmus-only")) {
      for (const std::string& name : workloads) {
        RAPID_CHECK(name == "cholesky" || name == "lu",
                    cat("unknown workload '", name,
                        "' (expected cholesky|lu)"));
        const auto w = num::build_shm_workload(
            num::seed_spec(name, scale, block, procs));
        const rt::RunPlan& plan = w->plan;
        const std::int64_t tot = w->tot_mem;
        const std::int64_t min = w->min_mem;

        for (const std::string& executor : executors) {
          const bool threaded = executor == "threaded";
          RAPID_CHECK(threaded || executor == "sim",
                      cat("unknown executor '", executor, "'"));
          // First-fit fragmentation and alignment put the practical floor
          // above MIN_MEM; escalate until the run executes (same policy as
          // rapid_trace).
          std::unique_ptr<obs::Trace> trace;
          rt::RunReport report;
          double residual = 0.0;
          std::int64_t capacity = 0;
          for (double frac = flags.get_double("frac");; frac += 0.1) {
            capacity = std::max(
                min + min / 8,
                static_cast<std::int64_t>(frac *
                                          static_cast<double>(tot)));
            trace = std::make_unique<obs::Trace>(procs, tcfg);
            rt::RunConfig config;
            config.params = params;
            config.capacity_per_proc = capacity;
            config.slab_arena = flags.get_bool("slab");
            if (threaded) {
              rt::ThreadedOptions options;
              options.trace = trace.get();
              options.transport = transport;
              rt::ThreadedExecutor exec(plan, config, w->make_init(),
                                        w->make_body(), options);
              report = exec.run();
              if (report.executable) residual = w->residual(exec);
            } else {
              report = rt::simulate(plan, config, trace.get());
            }
            if (report.executable) break;
            RAPID_CHECK(frac < 1.5, cat("run never became executable: ",
                                        report.failure));
          }

          verify::ConformanceOptions copt;
          copt.capacity_per_proc = capacity;
          copt.alignment = threaded ? 8 : 1;
          copt.slab_arena = flags.get_bool("slab");
          copt.report = &report;
          CheckedRun run;
          run.label = cat(name, "/", executor,
                          threaded && shm ? "+shm" : "", " clean");
          run.report = verify::check_conformance(plan, *trace, copt);
          check_residual(residual, &run.report);
          total_errors += run.report.errors();
          total_warnings += run.report.warnings();
          print_report(run);
          runs.push_back(std::move(run));

          // Fault sweep: threaded only (the fault plane and the recovery
          // layer live in the threaded executor).
          if (!threaded) continue;
          for (const std::string& preset : fault_presets) {
            for (std::uint64_t seed = 1;
                 seed <= static_cast<std::uint64_t>(flags.get_int("seeds"));
                 ++seed) {
              trace = std::make_unique<obs::Trace>(procs, tcfg);
              rt::RunConfig config;
              config.params = params;
              config.capacity_per_proc = capacity;
              config.slab_arena = flags.get_bool("slab");
              rt::ThreadedOptions options;
              options.trace = trace.get();
              options.transport = transport;
              options.retry = RetryPolicy::standard();
              options.faults = rt::FaultPlan::preset(preset, seed);
              rt::ThreadedExecutor exec(plan, config, w->make_init(),
                                        w->make_body(), options);
              report = exec.run();
              RAPID_CHECK(report.executable,
                          cat(name, " ", preset, " seed ", seed,
                              " failed: ", report.failure));
              residual = w->residual(exec);
              copt.report = &report;
              CheckedRun frun;
              frun.label = cat(name, "/threaded", shm ? "+shm " : " ",
                               preset, " seed ", seed);
              frun.report = verify::check_conformance(plan, *trace, copt);
              check_residual(residual, &frun.report);
              total_errors += frun.report.errors();
              total_warnings += frun.report.warnings();
              if (frun.report.errors() > 0 ||
                  frun.report.warnings() > 0) {
                print_report(frun);
              }
              runs.push_back(std::move(frun));
            }
            std::printf("%-42s checked x%lld seeds\n",
                        cat(name, "/threaded ", preset, " sweep").c_str(),
                        static_cast<long long>(flags.get_int("seeds")));
          }
        }
      }
    }
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "rapid_check: %s\n", e.what());
    return kExitInfraError;
  }

  // Litmus suite: the strong variants must verify clean, the weakened
  // variants must produce their counterexample.
  std::vector<verify::LitmusResult> litmus;
  bool litmus_ok = true;
  if (flags.get_bool("litmus") || flags.get_bool("litmus-only")) {
    litmus = verify::run_all_litmus();
    for (const verify::LitmusResult& r : litmus) {
      const bool ok = r.as_expected();
      litmus_ok = litmus_ok && ok;
      std::printf("litmus %-24s %s (%lld states%s)\n", r.name.c_str(),
                  ok ? (r.expect_clean ? "VERIFIED"
                                       : "counterexample found")
                     : "UNEXPECTED",
                  static_cast<long long>(r.states_explored),
                  r.expect_clean || r.violations.empty()
                      ? ""
                      : cat(", ", r.violations.size(), " violation(s)")
                            .c_str());
      if (!ok) {
        for (const std::string& v : r.violations) {
          std::printf("  %s\n", v.c_str());
        }
        if (r.violations.empty()) {
          std::printf("  expected a counterexample, found none — the "
                      "weakened ordering was not exercised\n");
        }
      }
    }
  }

  if (!flags.get("json").empty()) {
    JsonValue j = JsonValue::object();
    j["schema"] = 1;
    j["strict"] = strict;
    JsonValue& jruns = (j["runs"] = JsonValue::array());
    for (const CheckedRun& run : runs) {
      JsonValue jr = JsonValue::object();
      jr["label"] = run.label;
      jr["errors"] = static_cast<std::int64_t>(run.report.errors());
      jr["warnings"] = static_cast<std::int64_t>(run.report.warnings());
      JsonValue& jf = (jr["findings"] = JsonValue::array());
      for (const verify::Finding& f : run.report.findings) {
        jf.push_back(finding_json(f));
      }
      jruns.push_back(std::move(jr));
    }
    JsonValue& jl = (j["litmus"] = JsonValue::array());
    for (const verify::LitmusResult& r : litmus) {
      JsonValue jr = JsonValue::object();
      jr["name"] = r.name;
      jr["expect_clean"] = r.expect_clean;
      jr["states"] = r.states_explored;
      jr["as_expected"] = r.as_expected();
      JsonValue& jv = (jr["violations"] = JsonValue::array());
      for (const std::string& v : r.violations) jv.push_back(v);
      jl.push_back(std::move(jr));
    }
    write_file(flags.get("json"), j.dump());
    std::printf("wrote %s\n", flags.get("json").c_str());
  }

  std::printf("rapid_check: %lld error(s), %lld warning(s) across %zu "
              "run(s); litmus %s\n",
              static_cast<long long>(total_errors),
              static_cast<long long>(total_warnings), runs.size(),
              litmus.empty() ? "skipped" : litmus_ok ? "ok" : "FAILED");
  if (total_errors > 0 || !litmus_ok) return kExitFindings;
  if (strict && total_warnings > 0) return kExitFindings;
  return kExitOk;
}
