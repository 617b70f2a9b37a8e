// Run plan: everything the executors need, precomputed from the task graph
// and the static schedule at the inspector stage (paper Figure 1) — write
// epochs and object versions, the content messages each version triggers,
// synchronization-flag routing for the kept anti/output edges, per-task
// gating conditions, and per-processor volatile lifetime (dead point)
// tables for the MAPs.
//
// Version model: the writers of an object form "epochs" — maximal runs of
// program-order writers sharing a commute group (a non-commuting writer is
// its own epoch). Epoch v (1-based) produces version v when all its member
// tasks complete; version 0 is the object's initial content. A remote
// reader needs the max version over its true in-edges for that object
// (0 if it reads the initial content). Because all writers of an object run
// on its owner (owner-compute), content messages always flow owner → reader.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "rapid/sched/liveness.hpp"
#include "rapid/sched/schedule.hpp"

namespace rapid::rt {

using graph::DataId;
using graph::ProcId;
using graph::TaskId;

struct RemoteRead {
  DataId object = graph::kInvalidData;
  std::int32_t version = 0;  // minimum version that must have arrived
};

struct ContentSend {
  DataId object = graph::kInvalidData;
  std::int32_t version = 0;
  ProcId dest = graph::kInvalidProc;
};

struct ObjectPlan {
  /// Epochs in program order; epochs[v-1] produces version v.
  std::vector<std::vector<TaskId>> epochs;
  /// sends_by_version[v] = destination processors needing version v
  /// (v ranges over 0..epochs.size()).
  std::vector<std::vector<ProcId>> sends_by_version;

  std::int32_t num_versions() const {
    return static_cast<std::int32_t>(epochs.size());
  }
};

struct TaskRuntimePlan {
  /// Volatile inputs gated on received versions.
  std::vector<RemoteRead> remote_reads;
  /// Cross-processor anti/output predecessors whose completion flags must
  /// have arrived (deduplicated task ids).
  std::vector<TaskId> remote_sync_preds;
  /// Processors that must receive this task's completion flag.
  std::vector<ProcId> flag_dests;
  /// Volatile objects this task accesses (allocation units for the MAPs).
  std::vector<DataId> volatile_accesses;
  /// (object, version) epochs this task is a member of; used to count down
  /// epoch completion at run time.
  std::vector<std::pair<DataId, std::int32_t>> epoch_memberships;
};

struct ProcPlan {
  std::vector<TaskId> order;
  /// Objects owned by this processor (allocated for the whole run).
  std::vector<DataId> permanents;
  std::int64_t permanent_bytes = 0;
  /// Volatile lifetimes on this processor, from the liveness analysis.
  std::vector<sched::VolatileLifetime> volatiles;
  /// Initial content sends this owner must issue (version 0).
  std::vector<ContentSend> initial_sends;
};

struct MemoryPlan;  // rt/map_engine.hpp

/// One-entry memo of memory_plan() (rt/map_engine.hpp), guarded by its own
/// mutex. A copy or an assignment leaves the slot empty: a memory plan
/// belongs to the RunPlan object it was computed from, so a plan edited in
/// place after a memory plan was taken must be copied or rebuilt first.
struct MemoryPlanSlot {
  std::mutex m;
  std::shared_ptr<const MemoryPlan> plan;

  MemoryPlanSlot() = default;
  MemoryPlanSlot(const MemoryPlanSlot&) {}
  MemoryPlanSlot& operator=(const MemoryPlanSlot&) {
    std::lock_guard<std::mutex> lock(m);
    plan.reset();
    return *this;
  }
};

struct RunPlan {
  const graph::TaskGraph* graph = nullptr;
  sched::Schedule schedule;
  int num_procs = 0;
  std::vector<ObjectPlan> objects;
  std::vector<TaskRuntimePlan> tasks;
  std::vector<ProcPlan> procs;
  /// memory_plan()'s memo: filled on first use, never by the builder.
  mutable MemoryPlanSlot memory_memo;

  /// Version produced by writer task t for object d (t must be a writer of
  /// d). Exposed for the executors' epoch bookkeeping and for tests.
  std::int32_t version_of_writer(DataId d, TaskId t) const;
};

/// Validates the schedule against the graph (including owner-compute) and
/// builds the plan. Throws rapid::Error on inconsistencies.
RunPlan build_run_plan(const graph::TaskGraph& graph,
                       const sched::Schedule& schedule);

/// Cheap fingerprint of a plan's shape: per-processor task order and
/// permanent bytes (FNV-1a). The plan cache records it per entry, and the
/// golden-plan tests pin it per spec.
std::uint64_t plan_fingerprint(const RunPlan& plan);

}  // namespace rapid::rt
