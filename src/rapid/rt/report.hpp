// Run configuration and result reporting shared by both executors.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rapid/machine/params.hpp"
#include "rapid/mem/arena.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/json.hpp"

namespace rapid::obs {
struct MetricsSummary;  // obs/metrics.hpp — trace-derived metrics
}

namespace rapid::rt {

struct StallReport;  // rt/stall.hpp — full diagnosis of a stalled run
struct ProcFailureReport;  // rt/proc_failure.hpp — dead-rank diagnosis

/// Thrown when a schedule cannot execute under the configured capacity
/// (paper Def. 6: MIN_MEM exceeds the per-processor memory). The bench
/// harnesses render this as the paper's "∞" entries.
class NonExecutableError : public Error {
 public:
  using Error::Error;
};

/// Thrown when the protocol stops making progress. Theorem 1 says this
/// never happens for dependence-complete graphs; hitting it indicates a bug
/// (or a deliberately broken protocol in the fault-injection tests). The
/// threaded executor attaches the stall monitor's structured diagnosis —
/// per-processor protocol states and the wait-for cycle — when it has one.
class ProtocolDeadlockError : public Error {
 public:
  explicit ProtocolDeadlockError(
      std::string what, std::shared_ptr<const StallReport> report = nullptr)
      : Error(std::move(what)), report_(std::move(report)) {}

  /// The structured stall diagnosis, or nullptr when there is none (the
  /// simulator's deadlocks carry text only).
  const StallReport* report() const { return report_.get(); }

 private:
  std::shared_ptr<const StallReport> report_;
};

/// Thrown by the threaded executor when one or more task bodies failed (a
/// real exception or an injected fault) and the run was cooperatively
/// cancelled. Carries every per-processor failure, not just the first.
class ExecutionFailedError : public Error {
 public:
  ExecutionFailedError(std::string what, std::vector<std::string> errors)
      : Error(std::move(what)), errors_(std::move(errors)) {}

  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

/// How a run ended, recorded in RunReport (and implied by the exception
/// type for the throwing dispositions).
enum class FailureKind : std::uint8_t {
  kNone,           // clean completion
  kNonExecutable,  // capacity failure (RunReport::executable == false)
  kTaskError,      // a task body threw
  kInjectedFault,  // a FaultPlan-induced failure fired
  kDeadlock,       // stall monitor proved a wait-for cycle
  kWatchdog,       // no progress for watchdog_seconds, no cycle proven
  kIntegrity,      // checksum mismatch detected with recovery disabled
  kRetriesExhausted,  // a waiter's bounded re-requests ran out
  kProcFailure,    // a worker process died (signal, crash, or lease lapse)
  kCancelled,      // cooperative cancellation (deadline lapse or cancel())
};

const char* to_string(FailureKind kind);

struct RunReport;  // defined below

/// Thrown when a run was cooperatively cancelled — its per-attempt deadline
/// (ThreadedOptions::attempt_deadline_us) lapsed, or an external
/// ThreadedExecutor::cancel() landed. Cancellation is not a fault: the
/// abort rides the same control plane as failure handling, every worker
/// unwinds at its next protocol step, the arena is reclaimed with the
/// executor, and the partial counters survive in last_report(). Carries a
/// copy of that partial report so service-level callers can return it
/// without keeping the executor alive. run_with_recovery never restarts a
/// cancelled run (a lapsed deadline only lapses further on a restart).
class RunCancelledError : public Error {
 public:
  RunCancelledError(std::string what,
                    std::shared_ptr<const RunReport> partial)
      : Error(std::move(what)), partial_(std::move(partial)) {}

  /// The cancelled attempt's partial RunReport.
  const std::shared_ptr<const RunReport>& partial() const { return partial_; }

 private:
  std::shared_ptr<const RunReport> partial_;
};

/// What the self-healing layer did during a run (all zero on a clean run
/// with no faults). run_with_recovery() merges these across restart
/// attempts into the final report.
struct RecoveryCounters {
  std::int64_t nacks_sent = 0;       // re-requests issued by waiters
  std::int64_t resends = 0;          // content puts retransmitted by owners
  std::int64_t flag_resends = 0;     // completion flags retransmitted
  std::int64_t duplicate_suppressions = 0;  // replayed packages/NACKs ignored
  std::int64_t checksum_rejections = 0;     // payloads/packages failing CRC
  std::int64_t task_retries = 0;            // transient task re-executions
  /// 1-based count of run() attempts merged into this report (run-level
  /// restart); 1 means the first attempt succeeded.
  std::int32_t run_attempts = 1;

  /// Sums the event counters of a failed earlier attempt into this one
  /// (run_attempts is set by the caller, not summed).
  void merge(const RecoveryCounters& other);
};

struct RunConfig {
  /// Memory available on each processor for data objects (bytes).
  std::int64_t capacity_per_proc = 0;
  /// true: the paper's active memory management (MAPs, address packages,
  /// recycling). false: the original-RAPID baseline — all volatile space
  /// preallocated, all addresses known at start, no management overhead.
  bool active_memory = true;
  /// Cost model for the simulator (the threaded executor measures
  /// wall-clock instead).
  machine::MachineParams params;
  /// Volatile-space placement policy. Best-fit shrinks the fragmentation
  /// margin above MIN_MEM that mixed-size workloads need (the "special
  /// memory allocator" question from the paper's §6).
  mem::AllocPolicy alloc_policy = mem::AllocPolicy::kFirstFit;
  /// Address-package slots per (source, destination) pair. The paper's
  /// design is 1 ("we will not support address buffering in order to avoid
  /// the overhead of buffer managing"); larger values let a MAP finish
  /// without waiting for slow consumers — an ablatable design choice.
  std::int32_t mailbox_slots = 1;
  /// Enable the arena's size-class slab fast path (classes derived from the
  /// plan's per-processor volatile sizes; see ProcMemory). Placement can
  /// differ from the plain coalescing arena, so conformance/audit replays
  /// must be constructed with the same flag; byte accounting is identical.
  bool slab_arena = false;
};

/// The threaded executor's run counters, one slot each. Every rank counts
/// into its own block; RunReport::add_counters folds a block into a report
/// — after the in-proc threads joined, or after a shm worker published its
/// block through the control segment.
enum RunCounter : std::int32_t {
  kCtrContentMessages = 0,
  kCtrContentBytes,
  kCtrPutBatches,
  kCtrFlagMessages,
  kCtrAddrPackages,
  kCtrAddrEntries,
  kCtrSuspendedSends,
  kCtrTasksExecuted,
  kCtrNacksSent,
  kCtrResends,
  kCtrFlagResends,
  kCtrDupSuppressions,
  kCtrChecksumRejections,
  kCtrTaskRetries,
  kCtrMaps,       // per rank, not summed: maps_per_proc
  kCtrPeakBytes,  // per rank, not summed: peak_bytes_per_proc
  kNumRunCounters,
};
using CounterBlock = std::array<std::int64_t, kNumRunCounters>;

struct RunReport {
  /// Version of the to_json() document layout. Bumped when fields are
  /// added/renamed so downstream consumers of the run-report JSON and the
  /// CI report artifacts can detect what they are reading. Version 2 added
  /// the optional "metrics" block (trace-derived histograms/residencies);
  /// version 3 added "put_batches" (coalesced RMA put rounds); version 4
  /// added "transport" (inproc|shm backend) and the optional
  /// "proc_failure" block (dead-rank diagnosis of a multi-process run);
  /// version 5 added "run_id" (service-assigned, omitted when unset) and
  /// "attempt_deadline_us" (the per-attempt cancellation deadline in force,
  /// 0 = none).
  static constexpr std::int32_t kSchemaVersion = 5;

  bool executable = true;
  /// Service-assigned run id mirrored from ThreadedOptions::run_id
  /// (negative = not a service run; omitted from to_json()).
  std::int64_t run_id = -1;
  /// The per-attempt cancellation deadline that was in force
  /// (ThreadedOptions::attempt_deadline_us; 0 = none) — post-hoc timeout
  /// diagnosis needs to know the budget, not just that it lapsed.
  std::int64_t attempt_deadline_us = 0;
  /// Why the run was not executable (empty when executable).
  std::string failure;
  /// Failure disposition. kNone on success; kNonExecutable pairs with
  /// executable == false; the throwing kinds are filled in on the report
  /// the executor keeps internally and mirrored into the exception.
  FailureKind failure_kind = FailureKind::kNone;
  /// Every captured per-processor failure (a multi-thread failure is not
  /// masked by whichever thread lost the race to report first).
  std::vector<std::string> errors;

  /// Which transport backend ran the data plane ("inproc" threads or "shm"
  /// worker processes) — the bench guard rows record it.
  std::string transport = "inproc";
  /// Structured diagnosis of a dead worker process (failure_kind ==
  /// kProcFailure); null otherwise. Mirrored into ProcFailureError.
  std::shared_ptr<const ProcFailureReport> proc_failure;

  /// Modeled (simulator) or measured (threaded) parallel time, µs.
  double parallel_time_us = 0.0;

  std::vector<std::int32_t> maps_per_proc;
  std::vector<std::int64_t> peak_bytes_per_proc;

  std::int64_t content_messages = 0;
  std::int64_t content_bytes = 0;
  /// Coalesced put rounds: each batch covers >= 1 content_messages to one
  /// destination with a single staging pass + doorbell ring, so
  /// content_messages / put_batches is the average coalescing factor.
  std::int64_t put_batches = 0;
  std::int64_t flag_messages = 0;
  std::int64_t addr_packages = 0;
  std::int64_t addr_entries = 0;
  std::int64_t suspended_sends = 0;  // sends that had to wait for an address
  std::int64_t tasks_executed = 0;

  /// Self-healing activity (threaded executor only).
  RecoveryCounters recovery;

  /// Trace-derived metrics (state residencies, wait/put/MAP histograms,
  /// heap high-water marks). Null unless the run was traced
  /// (ThreadedOptions::trace / simulate()'s trace argument).
  std::shared_ptr<const obs::MetricsSummary> metrics;

  /// Simulator-only time breakdown, summed across processors (µs): task
  /// execution, sender-side message occupancy, and MAP/address machinery.
  /// parallel_time_us × p − (sum of these) is idle/blocked time.
  double compute_us = 0.0;
  double send_us = 0.0;
  double map_us = 0.0;

  /// Adds rank `proc`'s counter block: the event counters are summed, the
  /// MAP count and peak bytes fill the rank's per-processor slots.
  void add_counters(std::int32_t proc, const CounterBlock& block);

  double avg_maps() const;
  std::int64_t peak_bytes() const;
  /// Fraction of total processor-time spent idle or blocked (simulator).
  double idle_fraction() const;
  /// CI-artifact form: every counter, the recovery block, and the failure
  /// disposition.
  JsonValue to_json() const;
};

}  // namespace rapid::rt
