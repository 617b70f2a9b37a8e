#include "rapid/rt/recovery.hpp"

#include <utility>

#include "rapid/support/check.hpp"

namespace rapid::rt {

JsonValue RecoveryRun::to_json() const {
  JsonValue doc = JsonValue::object();
  doc["report"] = report.to_json();
  doc["attempts"] = attempts;
  doc["failed"] = failed;
  if (failed) {
    doc["failure"] = failure;
    doc["failure_kind"] = to_string(failure_kind);
  }
  doc["attempt_deadline_us"] = attempt_deadline_us;
  JsonValue fails = JsonValue::array();
  for (const std::string& f : attempt_failures) fails.push_back(f);
  doc["attempt_failures"] = std::move(fails);
  JsonValue procs = JsonValue::array();
  for (const auto& pf : attempt_proc_failures) {
    if (pf) procs.push_back(pf->to_json());
  }
  doc["attempt_proc_failures"] = std::move(procs);
  return doc;
}

RecoveryRun run_with_recovery(const RunPlan& plan, const RunConfig& config,
                              ObjectInit init, TaskBody body,
                              ThreadedOptions options,
                              RunRecoveryOptions ropts, RunContext* context) {
  RAPID_CHECK(ropts.max_run_attempts >= 1,
              "run_with_recovery needs at least one attempt");
  RecoveryRun out;
  out.attempt_deadline_us = options.attempt_deadline_us;
  RecoveryCounters accumulated;  // from failed attempts
  for (std::int32_t attempt = 1;; ++attempt) {
    ThreadedOptions opts = options;
    opts.run_attempt = attempt;
    auto exec =
        context ? std::make_unique<ThreadedExecutor>(*context, plan, config,
                                                     init, body, opts)
                : std::make_unique<ThreadedExecutor>(plan, config, init, body,
                                                     opts);
    out.attempts = attempt;
    bool cancelled = false;
    try {
      out.report = exec->run();
      // Completed, or non-executable: a capacity failure is deterministic,
      // so a restart cannot change it.
      out.report.recovery.merge(accumulated);
      out.report.recovery.run_attempts = attempt;
      out.executor = std::move(exec);
      return out;
    } catch (const RunCancelledError&) {
      // Cancellation (deadline lapse or an external cancel()) is terminal:
      // restarting cannot un-lapse a deadline, and the caller asked the run
      // to stop.
      cancelled = true;
    } catch (const Error&) {
      // Deadlock/exhaustion, a dead rank or a task failure: restart from
      // scratch (run() rebuilds all state) while attempts remain.
    }
    const RunReport& partial = exec->last_report();
    out.attempt_failures.push_back(partial.failure);
    if (partial.proc_failure) {
      out.attempt_proc_failures.push_back(partial.proc_failure);
    }
    accumulated.merge(partial.recovery);
    if (!cancelled && attempt < ropts.max_run_attempts) continue;
    out.report = partial;
    out.report.recovery = accumulated;
    out.report.recovery.run_attempts = attempt;
    out.failed = true;
    out.failure_kind = partial.failure_kind;
    out.failure = partial.failure;
    out.executor = std::move(exec);
    return out;
  }
}

}  // namespace rapid::rt
