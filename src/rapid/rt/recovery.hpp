// Run-level restart: the outermost ring of the self-healing layer
// (docs/FAULTS.md, "Recovery"). The inner rings — integrity-checked RMA and
// bounded re-request/retry — heal lost or corrupted messages *within* a run;
// run_with_recovery() bounds what happens when a run still fails (exhausted
// retries, a task that keeps throwing): re-run the whole plan from scratch,
// up to a configured attempt count, and merge every attempt's recovery
// counters into the one report the caller sees.
//
// A restart is safe for the same reason a single run is deterministic: run()
// rebuilds all heaps, versions, and protocol state from the plan, and task
// bodies are pure functions of their resolved inputs. Nothing of a failed
// attempt survives into the next one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rapid/rt/proc_failure.hpp"
#include "rapid/rt/threaded_executor.hpp"

namespace rapid::rt {

struct RunRecoveryOptions {
  /// Total run() attempts, including the first (1 = no restart, identical
  /// to calling ThreadedExecutor::run() directly).
  std::int32_t max_run_attempts = 3;
};

/// Result of run_with_recovery(): the last attempt's report with the failed
/// attempts' recovery counters merged in (and run_attempts set to the total
/// number of attempts), plus the failure text of each failed attempt in
/// order. `executor` is the instance that produced `report`, kept alive so
/// read_object() works on the final state — also when the run failed: a
/// failed run yields a structured (possibly partial) report, not an
/// exception to re-wrap.
struct RecoveryRun {
  RunReport report;
  std::unique_ptr<ThreadedExecutor> executor;
  /// failure summary of attempt i+1 (empty when the first attempt
  /// succeeded).
  std::vector<std::string> attempt_failures;
  /// Structured reports of every attempt that died to a process failure
  /// (shm transport: a worker was SIGKILLed, crashed, or lapsed its lease).
  /// Restarting respawns the dead rank's process from scratch, so these
  /// attempts are recoverable exactly like protocol-level faults.
  std::vector<std::shared_ptr<const ProcFailureReport>> attempt_proc_failures;
  std::int32_t attempts = 0;
  /// The run did not complete (it was cancelled, or it failed on every
  /// attempt): `report` is the last attempt's partial report and
  /// failure_kind/failure describe why.
  bool failed = false;
  FailureKind failure_kind = FailureKind::kNone;
  std::string failure;
  /// The per-attempt deadline that was in force (µs; 0 = none), for
  /// post-hoc timeout diagnosis in the JSON artifact.
  std::int64_t attempt_deadline_us = 0;

  /// CI-artifact form: the merged RunReport plus the attempt history —
  /// per-attempt failure summaries, proc-failure blocks and the deadline in
  /// force.
  JsonValue to_json() const;
};

/// Runs the plan under the threaded executor, restarting from scratch on
/// ProtocolDeadlockError / ExecutionFailedError up to
/// RunRecoveryOptions::max_run_attempts total attempts. Each attempt gets a
/// fresh executor with options.run_attempt set to its 1-based index, so a
/// FaultPlan gated by induced_fault_runs stops injecting on the restarts. A
/// non-executable plan is reported immediately (restarting cannot make a
/// capacity failure fit); exhausting the attempts returns the last attempt
/// with failed == true. A RunCancelledError is never retried: cancellation
/// is a caller decision, not a fault, and a lapsed deadline only lapses
/// further on a restart; it too returns with failed == true. With a
/// `context`, every attempt's executor runs on it (one at a time: a failed
/// attempt's executor is gone before the next one leases it), so restarts
/// reuse its crew and mapping; the context must outlive the returned
/// executor. Without one, each attempt's executor owns a private context.
RecoveryRun run_with_recovery(const RunPlan& plan, const RunConfig& config,
                              ObjectInit init, TaskBody body,
                              ThreadedOptions options = {},
                              RunRecoveryOptions ropts = {},
                              RunContext* context = nullptr);

}  // namespace rapid::rt
