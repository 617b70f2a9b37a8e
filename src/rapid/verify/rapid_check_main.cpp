// rapid_check: the verification gate, in three stages.
//
//   static  the plan auditor (verify/auditor.hpp) over every plan the tool
//           builds — cholesky, lu, trisolve, nbody and the paper's Figure 2
//           DAG — at the executability threshold MIN_MEM + MIN_MEM/8;
//   traced  cholesky and lu run under the event tracer (threaded and/or
//           simulated); each trace replays through the vector-clock
//           happens-before engine and the conformance rules (HB-RACE /
//           CONF-STATE / CONF-MSG / CONF-CAP, see verify/conformance.hpp),
//           every threaded run's numerics are checked against the dense
//           reference (NUM-RESIDUAL), and the recovery fault presets are
//           optionally swept across seeds;
//   litmus  the model checker over the lock-free primitives.
//
// Exits non-zero iff any ERROR finding survives (or, with --strict, any
// traced-run warning), or a litmus variant disagrees with its expectation.
// Static-stage warnings are advisories: at the paper's mailbox_slots = 1
// every seed plan carries MBX-CROSS/REC-CROSS warnings (docs/VERIFY.md), so
// they are printed and kept in --json but never change the exit code.
//
//   ./rapid_check                                   # all stages
//   ./rapid_check --workload=lu --executor=sim
//   ./rapid_check --faults=all --seeds=32 --json=findings.json
//   ./rapid_check --stages=static                   # just the plan audit
//   ./rapid_check --stages=litmus                   # just the model checker
#include <algorithm>
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
#include "rapid/sched/liveness.hpp"
#include "rapid/support/exit_codes.hpp"
#include "rapid/support/file.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/json.hpp"
#include "rapid/support/str.hpp"
#include "rapid/verify/auditor.hpp"
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

/// The static stage on one plan: the auditor at MIN_MEM + MIN_MEM/8, the
/// executability threshold the test suite uses (first-fit placement can
/// fragment just above the Def. 6 bound).
CheckedRun audit_stage(const std::string& name, const graph::TaskGraph& graph,
                       const sched::Schedule& schedule,
                       const rt::RunPlan& plan, std::int64_t min_mem,
                       bool slab) {
  verify::AuditOptions options;
  options.capacity_per_proc = min_mem + min_mem / 8;
  options.slab_arena = slab;
  CheckedRun run;
  run.label = cat(name, " static");
  run.report = verify::audit_plan(graph, schedule, plan, options);
  print_report(run);
  return run;
}

JsonValue runs_json(const std::vector<CheckedRun>& runs) {
  JsonValue out = JsonValue::array();
  for (const CheckedRun& run : runs) {
    JsonValue jr = JsonValue::object();
    jr["label"] = run.label;
    jr["errors"] = static_cast<std::int64_t>(run.report.errors());
    jr["warnings"] = static_cast<std::int64_t>(run.report.warnings());
    JsonValue& jf = (jr["findings"] = JsonValue::array());
    for (const verify::Finding& f : run.report.findings) {
      jf.push_back(finding_json(f));
    }
    out.push_back(std::move(jr));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("workload", "all",
               "cholesky|lu|trisolve|nbody|fig2|all (trisolve, nbody and "
               "fig2 get the static stage only)");
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
  flags.define("slab", "false",
               "run with the slab-backed arena fast path (the audit and "
               "conformance replays match the flag)");
  flags.define("stages", "static,traced,litmus",
               "comma-separated stages to run: static (plan audit), traced "
               "(conformance + numerics of traced runs), litmus (model "
               "checker)");
  flags.define("strict", "false",
               "exit non-zero on traced-run warnings too");
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
  const bool slab = flags.get_bool("slab");
  rt::TransportKind transport = rt::TransportKind::kInProc;
  std::vector<std::string> stages;
  const std::vector<std::string> traced_apps = {"cholesky", "lu"};
  const std::vector<std::string> static_apps = {"cholesky", "lu", "trisolve",
                                                "nbody", "fig2"};
  std::vector<std::string> workloads = static_apps;
  try {
    transport = rt::transport_from_string(flags.get("transport"));
    stages = split(flags.get("stages"), ',');
    for (const std::string& stage : stages) {
      RAPID_CHECK(stage == "static" || stage == "traced" ||
                      stage == "litmus",
                  cat("unknown stage '", stage,
                      "' (expected static|traced|litmus)"));
    }
    if (flags.get("workload") != "all") {
      workloads = {flags.get("workload")};
      RAPID_CHECK(std::ranges::count(static_apps, workloads[0]) == 1,
                  cat("unknown workload '", workloads[0],
                      "' (expected cholesky|lu|trisolve|nbody|fig2|all)"));
    }
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  const bool run_static = std::ranges::count(stages, "static") > 0;
  const bool run_traced = std::ranges::count(stages, "traced") > 0;
  const bool run_litmus = std::ranges::count(stages, "litmus") > 0;
  if (!run_static && !run_litmus &&
      std::ranges::count(traced_apps, workloads.front()) == 0) {
    // A static-only app under --stages=traced: exit 0 would claim a check.
    std::fprintf(stderr, "rapid_check: '%s' has no traced runs\n",
                 workloads.front().c_str());
    return kExitInfraError;
  }
  const bool shm = transport == rt::TransportKind::kShm;
  const auto params = machine::MachineParams::cray_t3d(procs);

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

  std::vector<CheckedRun> audits;
  std::vector<CheckedRun> runs;
  std::int64_t total_errors = 0;
  std::int64_t total_warnings = 0;

  try {
    for (const std::string& name : workloads) {
      if (name == "fig2") {
        // The paper's Figure 2 DAG: a bare graph with no numeric app,
        // scheduled here, so it gets the static stage only.
        if (!run_static) continue;
        const graph::TaskGraph graph = graph::make_paper_figure2_graph();
        const sched::Schedule schedule =
            num::schedule_owner_compute(graph, procs, "rcp");
        audits.push_back(audit_stage(
            name, graph, schedule, rt::build_run_plan(graph, schedule),
            sched::analyze_liveness(graph, schedule).min_mem(), slab));
        continue;
      }
      const bool traced =
          run_traced && std::ranges::count(traced_apps, name) == 1;
      if (!run_static && !traced) continue;
      const auto w = num::build_shm_workload(
          num::seed_spec(name, scale, block, procs));
      if (run_static) {
        audits.push_back(audit_stage(name, w->graph(), w->schedule, w->plan,
                                     w->min_mem, slab));
      }
      if (!traced) continue;
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
          config.slab_arena = slab;
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
        copt.slab_arena = slab;
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
            config.slab_arena = slab;
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
                      cat(name, "/threaded", shm ? "+shm " : " ", preset,
                          " sweep").c_str(),
                      static_cast<long long>(flags.get_int("seeds")));
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
  if (run_litmus) {
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

  std::int64_t audit_errors = 0;
  std::int64_t audit_warnings = 0;
  for (const CheckedRun& audit : audits) {
    audit_errors += audit.report.errors();
    audit_warnings += audit.report.warnings();
  }

  if (!flags.get("json").empty()) {
    // Schema 2 added "static" (the plan audits; "runs" are the traced
    // runs).
    JsonValue j = JsonValue::object();
    j["schema"] = 2;
    j["strict"] = strict;
    j["static"] = runs_json(audits);
    j["runs"] = runs_json(runs);
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

  std::printf("rapid_check: static %lld error(s), %lld advisory warning(s) "
              "over %zu plan(s); traced %lld error(s), %lld warning(s) "
              "across %zu run(s); litmus %s\n",
              static_cast<long long>(audit_errors),
              static_cast<long long>(audit_warnings), audits.size(),
              static_cast<long long>(total_errors),
              static_cast<long long>(total_warnings), runs.size(),
              litmus.empty() ? "skipped" : litmus_ok ? "ok" : "FAILED");
  if (audit_errors > 0 || total_errors > 0 || !litmus_ok) {
    return kExitFindings;
  }
  if (strict && total_warnings > 0) return kExitFindings;
  return kExitOk;
}
