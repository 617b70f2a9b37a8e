// Threaded executor: the same protocol as the simulator, but real. Each
// "processor" is a thread of a RunContext's crew (rt/run_context.hpp) with a
// private fixed-capacity heap; RMA puts
// are memcpys into the destination heap at offsets learned through address
// packages; blocked states poll RA (read address packages) then CQ (check
// the suspended send queue) exactly like the paper's Figure 3(b). Task
// bodies run real kernels, so a run both demonstrates protocol liveness
// under true concurrency and produces numerical results that tests compare
// against reference solvers.
//
// The communication data plane is lock-free, like the shmem_put RMA it
// models: senders memcpy payloads straight into the destination heap and
// publish visibility with a per-object release store; readiness checks are
// acquire loads. Only the multi-slot address-package mailbox (and the NACK
// ring, on recovery paths) takes a lock: a per-destination spinlock in the
// segment. Stall diagnosis reads the wait records ranks publish there,
// lock-free. Blocked states spin briefly and then park on a shared
// progress doorbell instead of yield-spinning. docs/RUNTIME.md states the
// memory-ordering argument.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include <string>

#include "rapid/rt/faults.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"
#include "rapid/rt/transport.hpp"
#include "rapid/support/backoff.hpp"

namespace rapid::obs {
class Trace;  // obs/trace.hpp — per-processor ring-buffer event tracer
}

namespace rapid::rt {

/// Resolves data objects to buffers in the executing processor's heap.
/// Reads of remote objects see the locally received copy; writes are only
/// legal on the owner (owner-compute).
class ObjectResolver {
 public:
  virtual ~ObjectResolver() = default;
  virtual std::span<const std::byte> read(DataId d) const = 0;
  virtual std::span<std::byte> write(DataId d) = 0;
};

/// Fills an owned object's initial content (version 0). Without one, owned
/// objects start zeroed.
using ObjectInit = std::function<void(DataId, std::span<std::byte>)>;
/// Executes one task against its resolved buffers.
using TaskBody = std::function<void(TaskId, ObjectResolver&)>;

struct ThreadedOptions {
  /// Hard limit: abort with ProtocolDeadlockError (carrying the last stall
  /// diagnosis) if no global progress for this long. Well before it (after
  /// 0.5 s without progress) the monitor snapshots every processor and
  /// builds the wait-for graph: a genuine cycle fails the run immediately
  /// with a structured StallReport, anything else is slow progress and the
  /// run resumes — so a real deadlock is diagnosed in seconds, not
  /// watchdog_seconds.
  double watchdog_seconds = 30.0;
  /// Bounded re-request/retry recovery. Every content put and address
  /// package carries a CRC32C the reader verifies before trusting the
  /// publication (docs/PROTOCOL.md, "Integrity and re-request recovery").
  /// Disabled by default (max_attempts == 0): a checksum mismatch or any
  /// other detected fault fails the run exactly as in the fail-stop design
  /// (a mismatch as FailureKind::kIntegrity). When enabled, a mismatch
  /// re-requests the payload, and a blocked wait past its deadline sends
  /// a NACK/re-request to the owner; transient task errors are re-executed;
  /// only exhausted retries escalate to ProtocolDeadlockError, and the
  /// stall watchdog budget is scaled by the policy's total wait so retries
  /// are never misdiagnosed as a deadlock.
  RetryPolicy retry;
  /// 1-based attempt number when driven by run_with_recovery();
  /// FaultPlan::induced_fault_runs gates induced failures by it.
  std::int32_t run_attempt = 1;
  /// Per-attempt cancellation deadline (µs of wall time from run() entry;
  /// 0 = none). When it lapses the monitor cooperatively cancels the run:
  /// abort is requested on the control plane, every worker unwinds at its
  /// next protocol step, and run() throws RunCancelledError carrying the
  /// partial RunReport — the run never wedges a worker past its budget.
  /// The service layer sets this to each run's remaining deadline.
  std::int64_t attempt_deadline_us = 0;
  /// Service-assigned run id (negative = standalone run). Mirrored into
  /// RunReport::run_id and the per-thread log tag so interleaved logs and
  /// reports of co-resident runs are attributable.
  std::int64_t run_id = -1;
  /// Deterministic fault injection (off by default — enabled() false means
  /// every hook reduces to one predictable branch). See docs/FAULTS.md.
  FaultPlan faults;
  /// Event tracer (docs/OBSERVABILITY.md). Null (the default) means no
  /// tracing: every record site reduces to one predictable branch. When
  /// set, each worker appends protocol events to its own ring in the Trace
  /// (single-writer, lock-free), and run() attaches the derived
  /// MetricsSummary to the RunReport. The Trace must outlive run() and be
  /// sized for at least plan.num_procs processors. Its rings live in a
  /// shared mapping, so on the shm transport each forked worker process
  /// appends to its own rank's ring of this very Trace, on the caller's
  /// clock epoch; a killed rank keeps every record it finished.
  obs::Trace* trace = nullptr;

  /// Which one-sided transport carries the data plane. kInProc (default)
  /// is the thread-per-processor executor; kShm forks each paper-processor
  /// as an OS process over a shared anonymous mapping (docs/TRANSPORT.md).
  /// Each forked worker runs the executor state the coordinator prepared
  /// before forking: the plan, the task bodies, these options and every
  /// rank's MAP engine.
  TransportKind transport = TransportKind::kInProc;
  /// Heartbeat lease (shm only): a worker whose lease goes stale for this
  /// long while not inside a task body — or while stopped by a signal,
  /// wherever it is — is declared dead (SIGKILLed if still twitching) and
  /// the run fail-stops with a ProcFailureReport.
  double lease_timeout_seconds = 2.0;
};

class RunContext;  // rt/run_context.hpp

class ThreadedExecutor {
 public:
  /// A standalone executor: its in-proc runs use a private RunContext,
  /// whose rank threads exit at the end of each run.
  ThreadedExecutor(const RunPlan& plan, const RunConfig& config,
                   ObjectInit init, TaskBody body,
                   ThreadedOptions options = {});
  /// An executor on `context`, which it leases until destroyed (a second
  /// live executor on the same context fails a RAPID_CHECK). The context
  /// must outlive the executor. Shm runs do not use it.
  ThreadedExecutor(RunContext& context, const RunPlan& plan,
                   const RunConfig& config, ObjectInit init, TaskBody body,
                   ThreadedOptions options = {});
  ~ThreadedExecutor();

  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;

  /// Runs to completion. Capacity failures are reported via
  /// RunReport::executable. Throws ProtocolDeadlockError — carrying a
  /// StallReport with per-processor states and the wait-for cycle — when
  /// the stall monitor proves a deadlock or the watchdog expires, and
  /// ExecutionFailedError (with every per-processor failure) when task
  /// bodies threw and the run was cooperatively cancelled.
  RunReport run();

  /// Final content of an object, copied from its owner's heap. Throws
  /// rapid::Error unless run() completed successfully first — heap state
  /// before that point is uninitialized or partial.
  std::vector<std::byte> read_object(DataId d) const;

  /// The report of the most recent run(), including the partial counters of
  /// a run that threw — run_with_recovery() merges these across restart
  /// attempts. Valid after run() returned or threw.
  const RunReport& last_report() const;

  /// Requests cooperative cancellation of an in-flight run() from another
  /// thread. The monitor observes the request within one heartbeat (at
  /// most 125 ms), aborts the run,
  /// and run() throws RunCancelledError with the partial report. Safe to
  /// call at any time, including before run() or after completion (a run
  /// that already quiesced is unaffected).
  void cancel(std::string reason = "cancelled by caller");

  /// The implementation, internal to rt/ (rt/executor_impl.hpp).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace rapid::rt
