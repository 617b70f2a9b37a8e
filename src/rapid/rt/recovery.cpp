#include "rapid/rt/recovery.hpp"

#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "rapid/support/check.hpp"

namespace rapid::rt {

namespace {

/// Growth of the restart backoff per further restart.
constexpr double kRestartBackoffMultiplier = 2.0;

/// Backoff before restart attempt `attempt` (2-based; attempt 2 waits the
/// base, attempt 3 twice the base, ...). Saturates instead of overflowing
/// for absurd attempt counts.
std::int64_t restart_wait_us(const RunRecoveryOptions& ropts,
                             std::int32_t attempt) {
  if (ropts.restart_backoff_us <= 0 || attempt < 2) return 0;
  double wait = static_cast<double>(ropts.restart_backoff_us);
  for (std::int32_t k = 2; k < attempt; ++k) {
    wait *= kRestartBackoffMultiplier;
    if (wait > 1e15) return static_cast<std::int64_t>(1e15);
  }
  return static_cast<std::int64_t>(wait);
}

}  // namespace

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
  JsonValue waits = JsonValue::array();
  for (const std::int64_t w : backoff_waits_us) waits.push_back(w);
  doc["backoff_waits_us"] = std::move(waits);
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
  std::int32_t failed_attempts = 0;
  std::exception_ptr last_error;
  for (std::int32_t attempt = 1; attempt <= ropts.max_run_attempts;
       ++attempt) {
    if (attempt > 1) {
      const std::int64_t wait = restart_wait_us(ropts, attempt);
      out.backoff_waits_us.push_back(wait);
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(wait));
      }
    }
    ThreadedOptions opts = options;
    opts.run_attempt = attempt;
    auto exec =
        context ? std::make_unique<ThreadedExecutor>(*context, plan, config,
                                                     init, body, opts)
                : std::make_unique<ThreadedExecutor>(plan, config, init, body,
                                                     opts);
    out.attempts = attempt;
    try {
      out.report = exec->run();
    } catch (const RunCancelledError&) {
      // Cancellation (deadline lapse or an external cancel()) is terminal:
      // restarting cannot un-lapse a deadline, and the caller asked the run
      // to stop. Surface the partial report instead of retrying.
      const RunReport& partial = exec->last_report();
      accumulated.merge(partial.recovery);
      out.report = partial;
      out.report.recovery = accumulated;
      out.report.recovery.run_attempts = attempt;
      out.failed = true;
      out.failure_kind = partial.failure_kind;
      out.failure = partial.failure;
      out.attempt_failures.push_back(partial.failure);
      out.executor = std::move(exec);
      if (!ropts.capture_failure) throw;
      return out;
    } catch (const Error&) {
      // Deadlock/exhaustion or task failure: fold this attempt's partial
      // counters in and restart from scratch (run() rebuilds all state).
      last_error = std::current_exception();
      const RunReport& partial = exec->last_report();
      out.attempt_failures.push_back(partial.failure);
      if (partial.proc_failure) {
        out.attempt_proc_failures.push_back(partial.proc_failure);
      }
      accumulated.merge(partial.recovery);
      accumulated.run_attempts = ++failed_attempts;
      if (attempt == ropts.max_run_attempts && ropts.capture_failure) {
        out.report = partial;
        out.report.recovery = accumulated;
        out.report.recovery.run_attempts = attempt;
        out.failed = true;
        out.failure_kind = partial.failure_kind;
        out.failure = partial.failure;
        out.executor = std::move(exec);
        return out;
      }
      continue;
    }
    out.executor = std::move(exec);
    if (!out.report.executable) {
      // Capacity failure: deterministic, a restart cannot change it.
      out.report.recovery.merge(accumulated);
      out.report.recovery.run_attempts = attempt;
      return out;
    }
    out.report.recovery.merge(accumulated);
    out.report.recovery.run_attempts = attempt;
    return out;
  }
  std::rethrow_exception(last_error);
}

}  // namespace rapid::rt
