// Stall diagnosis for the threaded executor: when the progress monitor
// suspects a stall it snapshots every processor's protocol state, builds
// the processor-level wait-for graph, and either names the cycle (genuine
// deadlock — Theorem 1's preconditions were violated) or reports "slow
// progress" so the monitor resumes waiting. Snapshots need no cooperation:
// each rank publishes its wait record and suspended-send counts into its
// control slot whenever it pauses blocked, and the monitor reads them from
// the segment on both transports (docs/RUNTIME.md, "Failure modes and
// stall diagnosis").
#pragma once

#include <string>
#include <vector>

#include "rapid/rt/plan.hpp"
#include "rapid/support/json.hpp"

namespace rapid::rt {

/// Where a processor's worker thread is inside the REC/EXE/SND/MAP/END
/// protocol (paper Figure 3(b)), as published for diagnosis.
enum class ProcState : std::uint8_t {
  kStart,       // before the first protocol loop iteration
  kMap,         // running the MAP procedure
  kMapBlocked,  // MAP blocked: destination mailbox slot full
  kExe,         // executing a task body (or between EXE and SND)
  kRecBlocked,  // REC: waiting for a remote version or completion flag
  kEndDrain,    // END: own order finished, draining suspended sends
  kQuiescent,   // END: drained, waiting for global quiescence
  kFailed,      // worker unwound with an error
};

const char* to_string(ProcState state);
/// REC-blocked, MAP-blocked or END-drain: the states a processor publishes
/// its wait record in, and the only ones wait-for edges leave.
bool is_blocked(ProcState state);

/// The wait a blocked processor is in, with its bounded re-request
/// (recovery) state: `attempts` NACKs sent so far, and whether they ran out
/// (`exhausted`) — the event that escalates to ProtocolDeadlockError.
struct RetryRecord {
  DataId object = graph::kInvalidData;   // content wait (or package target)
  std::int32_t version = -1;             // version the waiter needed
  TaskId flag_task = graph::kInvalidTask;  // flag wait (object invalid)
  std::int32_t attempts = 0;             // NACKs sent for this wait
  std::int64_t waited_us = 0;            // total steady-clock wait time
  bool exhausted = false;
};

/// One processor's state at the stall instant, built by the monitor from
/// what the processor published in the segment. The blocked cause, the
/// suspended sends and `retry` are filled only for blocked states (REC,
/// MAP-blocked, END-drain): they are published at blocked pauses.
struct ProcSnapshot {
  ProcId proc = graph::kInvalidProc;
  ProcState state = ProcState::kStart;
  std::int32_t pos = 0;         // position in the static task order
  std::int32_t order_size = 0;
  TaskId current_task = graph::kInvalidTask;

  // REC-blocked cause: the first unmet gate of current_task.
  DataId waiting_object = graph::kInvalidData;
  std::int32_t waiting_version = -1;  // version required
  std::int32_t have_version = -1;     // version actually received
  TaskId waiting_flag_task = graph::kInvalidTask;

  // MAP-blocked cause.
  ProcId mailbox_full_dest = graph::kInvalidProc;

  std::int64_t suspended_sends = 0;
  std::vector<std::int64_t> suspended_by_dest;  // per destination processor
  std::int64_t mailbox_packages = 0;  // occupancy of this proc's own mailbox

  /// The wait the processor is blocked in: how long it has waited and the
  /// re-requests it issued (0 when recovery is off or the wait is fresh).
  RetryRecord retry;
};

/// One wait-for edge: `from` cannot progress until `to` acts.
struct WaitEdge {
  enum class Kind : std::uint8_t {
    kContent,      // waiting for a version of an object owned by `to`
    kFlag,         // waiting for a completion flag from a task on `to`
    kAddrPackage,  // suspended sends to `to` awaiting its address package
    kMailboxSlot,  // MAP blocked until `to` drains its mailbox
  };
  ProcId from = graph::kInvalidProc;
  ProcId to = graph::kInvalidProc;
  Kind kind = Kind::kContent;
  DataId object = graph::kInvalidData;  // kContent: the blocked object
  /// Re-requests the waiter has already issued along this edge (nonzero
  /// only for the blocked wait of a recovery-enabled run).
  std::int32_t retries = 0;
  std::string reason;                   // human-readable, with names
};

/// "content" | "flag" | "addr_package" | "mailbox_slot".
const char* to_string(WaitEdge::Kind kind);

/// The structured diagnosis attached to ProtocolDeadlockError. summary()
/// renders it for terminals and exception messages; to_json() for CI
/// artifacts (support/json escapes arbitrary message content).
struct StallReport {
  double stalled_seconds = 0.0;
  /// The per-attempt cancellation deadline in force when the stall was
  /// diagnosed (ThreadedOptions::attempt_deadline_us; 0 = none). Surfaced
  /// so a service-imposed timeout is diagnosable post-hoc: a report whose
  /// stalled_seconds approaches this budget describes a run that was about
  /// to be cancelled, not one that deadlocked.
  std::int64_t attempt_deadline_us = 0;
  std::vector<ProcSnapshot> procs;
  std::vector<WaitEdge> edges;
  /// Processors forming a wait-for cycle, in cycle order; empty when the
  /// stall was not (yet) provably a deadlock.
  std::vector<ProcId> cycle;
  /// True when the stall cannot resolve on its own: a wait-for cycle, or a
  /// wait targeting an already-quiescent processor.
  bool genuine_deadlock = false;
  /// True when recovery was enabled and a waiter ran out of re-request
  /// attempts — the only way a recovery-enabled run escalates to
  /// ProtocolDeadlockError before the scaled watchdog.
  bool retries_exhausted = false;
  /// Every per-processor failure captured this run (not just the first).
  std::vector<std::string> errors;

  std::string summary() const;
  JsonValue to_json() const;
};

/// Builds wait-for edges from the snapshots. Edges only originate from
/// blocked states; a processor inside EXE is presumed to make progress.
std::vector<WaitEdge> build_wait_edges(const RunPlan& plan,
                                       const std::vector<ProcSnapshot>& procs);

/// Finds one cycle in the processor wait-for graph (empty if acyclic).
std::vector<ProcId> find_cycle(int num_procs,
                               const std::vector<WaitEdge>& edges);

/// Full diagnosis: edges, cycle, genuine-deadlock classification.
StallReport diagnose_stall(const RunPlan& plan,
                           std::vector<ProcSnapshot> procs,
                           double stalled_seconds,
                           std::vector<std::string> errors);

}  // namespace rapid::rt
