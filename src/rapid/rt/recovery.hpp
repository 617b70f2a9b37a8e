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
  /// Pause before restarting after a failed attempt (µs; 0 = immediate).
  /// Doubles per further restart, so a run tripping over a persistent
  /// environmental fault backs off instead of hammering: attempt k (k >= 2)
  /// waits restart_backoff_us * 2^(k-2).
  std::int64_t restart_backoff_us = 0;
  /// When true, a run that still fails after the attempt cap — or is
  /// cancelled — does not rethrow: the RecoveryRun comes back with
  /// failed == true, the failing attempt's partial report, and the executor
  /// that produced it. The runtime service uses this so every admitted run
  /// yields a structured (possibly partial) RunReport instead of an
  /// exception to re-wrap.
  bool capture_failure = false;
};

/// Result of run_with_recovery(): the successful attempt's report with the
/// failed attempts' recovery counters merged in (and run_attempts set to the
/// total number of attempts), plus the failure text of each failed attempt
/// in order. `executor` is the instance that produced `report`, kept alive
/// so read_object() works on the final state.
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
  /// Capture mode (RunRecoveryOptions::capture_failure) only: the run did
  /// not complete — `report` is the last attempt's partial report and
  /// failure_kind/failure describe why. Always false when the legacy
  /// rethrowing mode returned.
  bool failed = false;
  FailureKind failure_kind = FailureKind::kNone;
  std::string failure;
  /// The per-attempt deadline that was in force (µs; 0 = none) and the
  /// restart backoff actually waited before each restart, for post-hoc
  /// timeout diagnosis in the JSON artifact.
  std::int64_t attempt_deadline_us = 0;
  std::vector<std::int64_t> backoff_waits_us;

  /// CI-artifact form: the merged RunReport plus the attempt history —
  /// per-attempt failure summaries, proc-failure blocks, the deadline in
  /// force, and the restart backoff waits.
  JsonValue to_json() const;
};

/// Runs the plan under the threaded executor, restarting from scratch on
/// ProtocolDeadlockError / ExecutionFailedError up to
/// RunRecoveryOptions::max_run_attempts total attempts. Each attempt gets a
/// fresh executor with options.run_attempt set to its 1-based index, so a
/// FaultPlan gated by induced_fault_runs stops injecting on the restarts. A
/// non-executable plan is reported immediately (restarting cannot make a
/// capacity failure fit); exhausting the attempts rethrows the last
/// attempt's exception (or returns it structured in capture_failure mode).
/// A RunCancelledError is never retried: cancellation is a caller decision,
/// not a fault, and a lapsed deadline only lapses further on a restart.
/// Restarts wait restart_backoff_us (doubling per restart) first. With a
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
