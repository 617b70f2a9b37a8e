// Static plan auditor: checks the preconditions of the paper's Theorem 1
// (deadlock freedom + consistency of the RMA protocol) *before* an executor
// launches, and the run-time realizability of Def. 6 (capacity feasibility)
// by replaying the MAP procedure symbolically. The executors trust their
// inputs; this is the component that earns that trust — it re-derives every
// invariant independently from the graph's access sets and the schedule
// instead of believing the plan builder.
//
// Each violation is a structured Finding carrying a stable rule id, a
// severity, the offending task/object/processor/position, and a fix hint.
// docs/VERIFY.md documents every rule and the Theorem 1 / Def. 6
// precondition it discharges.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"

namespace rapid::verify {

using graph::DataId;
using graph::ProcId;
using graph::TaskId;

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

const char* severity_name(Severity severity);

/// Stable rule identifiers (the `rule` field of a Finding):
///
///   SCHED-PLACE    every task scheduled exactly once on a valid processor
///   SCHED-ORDER    same-processor dependence edges go forward in the order
///   SCHED-OWNER    owner-compute: writers run on the object's owner
///   DEP-CYCLE      the transformed dependence graph is acyclic
///   DEP-RAW        every (writer, later reader) pair is covered by a path
///   DEP-WAR        every (reader, later writer) pair is covered by a path
///   DEP-WAW        every (epoch v, epoch v+1) writer pair is path-covered
///   DEP-SKIPPED    info: graph too large for the reachability closure
///   VER-EPOCH      plan epochs partition the writers in program order
///   VER-RANGE      every RemoteRead version is in [0, num_versions]
///   VER-MONO       required versions are monotone per (object, processor)
///   MSG-RECV       every RemoteRead has a matching ContentSend
///   MSG-SEND       every ContentSend has a matching RemoteRead
///   MSG-INIT       owners' initial sends match version-0 destinations
///   LIVE-MISSING   a volatile access has no lifetime entry
///   LIVE-BEFORE    a volatile access precedes its lifetime window
///   LIVE-AFTER     a volatile access follows its dead point
///   LIVE-WINDOW    a lifetime disagrees with the recomputed liveness table
///   CAP-PERM       permanent objects alone exceed the capacity
///   CAP-TOT        baseline mode: preallocated volatiles do not fit
///   CAP-MAP        a MAP position is non-executable under Def. 6
///   CAP-SKIPPED    (info) replay skipped because LIVE-* errors exist
///   MBX-CROSS      two MAPs' address-package waits could cross (slots = 1)
///   REC-CROSS      a crossed mailbox wait gates a remote read from the
///                  crossing peer — the re-request recovery layer cannot
///                  heal a stall there (mailbox-slot waits have no NACK)
struct Finding {
  std::string rule;
  Severity severity = Severity::kError;
  TaskId task = graph::kInvalidTask;
  DataId object = graph::kInvalidData;
  ProcId proc = graph::kInvalidProc;
  std::int32_t position = -1;  // schedule position, where meaningful
  std::string message;         // what is wrong
  std::string hint;            // how to fix it
};

struct AuditOptions {
  /// Per-processor capacity for the symbolic MAP replay (CAP-* rules).
  /// <= 0 skips the capacity checks (the plan-level rules still run).
  std::int64_t capacity_per_proc = 0;
  /// false audits the original-RAPID baseline (preallocate everything).
  bool active_memory = true;
  /// Address-package slots; MBX-CROSS only fires when this is 1.
  std::int32_t mailbox_slots = 1;
  /// Placement policy for the replay — must match the executor's, since
  /// fragmentation (not just peak bytes) decides Def. 6 feasibility.
  mem::AllocPolicy alloc_policy = mem::AllocPolicy::kFirstFit;
  /// Slab-backed arena fast path (RunConfig::slab_arena) — same matching
  /// requirement as alloc_policy: slab caching changes placement.
  bool slab_arena = false;
  /// DEP-* and MBX-CROSS need an O(V·E/64) reachability closure over the
  /// transformed graph; graphs with more tasks than this skip those rules
  /// and report DEP-SKIPPED (info) instead.
  std::int32_t max_reachability_tasks = 20000;
  /// Findings reported per rule before the rest are summarized away.
  std::int32_t max_findings_per_rule = 25;
};

struct AuditReport {
  std::vector<Finding> findings;

  int errors() const;
  int warnings() const;
  bool clean() const { return errors() == 0; }

  /// First finding with the given rule id, or nullptr.
  const Finding* find(const std::string& rule) const;
  bool has(const std::string& rule) const { return find(rule) != nullptr; }

  /// One-line verdict, e.g. "plan audit: 2 errors, 1 warning".
  std::string summary() const;
  /// Full human-readable report, one finding per paragraph.
  std::string to_string() const;
};

/// Audits graph + schedule + plan against the options. Never throws on
/// violations — they become findings; throws rapid::Error only on
/// malformed inputs that make auditing itself impossible (e.g. plan/graph
/// size mismatch).
AuditReport audit_plan(const graph::TaskGraph& graph,
                       const sched::Schedule& schedule,
                       const rt::RunPlan& plan,
                       const AuditOptions& options = {});

}  // namespace rapid::verify
