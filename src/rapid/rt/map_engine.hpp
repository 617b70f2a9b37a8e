// Per-processor memory state plus the Memory Allocation Point procedure
// (paper §3.3):
//   1. free volatile objects that are dead at the current position,
//   2. allocate volatile space forward along the execution chain, stopping
//      before the first task whose objects no longer fit (that position is
//      the next MAP),
//   3. assemble address packages for the owners of the newly allocated
//      volatiles.
//
// A MAP's outcome is fixed by the plan, the capacity and the allocator, so
// it is computed once: memory_plan() replays ProcMemory at the threaded
// executor's 8-byte alignment and records every step as a MemoryPlan,
// memoized on the RunPlan. Admission (svc::compute_demand) summarizes that
// plan and the executor's ranks apply its steps. The simulator, the
// auditor and the CONF-CAP conformance replay drive ProcMemory directly,
// as independent replays.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rapid/mem/arena.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"

namespace rapid::rt {

/// One address package: (object, offset in the reader's arena) entries for
/// a single owner processor. The integrity plane stamps each package with a
/// per-(sender → owner) sequence number and a CRC32C at send time: the
/// receiver suppresses replays by sequence and rejects corrupted packages
/// before installing any entry.
struct AddrPackage {
  ProcId reader = graph::kInvalidProc;  // who allocated the buffers
  std::vector<std::pair<DataId, mem::Offset>> entries;
  /// 1-based per-(sender, owner) sequence number; 0 = unstamped (never sent).
  std::uint32_t seq = 0;
  /// CRC32C over (reader, seq, entries), folded field by field so struct
  /// padding never enters the digest. Computed by checksum() at send time.
  std::uint32_t crc = 0;

  /// Digest of the package's logical content (everything but `crc`).
  std::uint32_t checksum() const;
};

struct MapResult {
  std::vector<DataId> freed;
  std::vector<DataId> allocated;
  /// Address packages grouped by destination owner processor.
  std::vector<std::pair<ProcId, AddrPackage>> packages;
  /// Tasks [0, alloc_upto) now have all volatile inputs allocated; the next
  /// MAP fires when execution reaches alloc_upto.
  std::int32_t alloc_upto = 0;
};

class ProcMemory {
 public:
  /// Allocates all permanent objects up front; throws NonExecutableError if
  /// they alone exceed the capacity. `alignment` is 1 by default so that
  /// capacity semantics match Def. 5 byte-for-byte (the simulator's mode);
  /// memory_plan() passes 8 because the threaded executor's buffers hold
  /// doubles — all of its objects have sizes that are multiples of 8, so
  /// accounting is unchanged.
  ///
  /// `slab_arena` enables the arena's size-class slab fast path, with the
  /// classes derived deterministically from this processor's planned
  /// volatile sizes (the MAP alloc/free population) — so a conformance or
  /// audit replay constructed from the same plan and flag reproduces the
  /// executor's MAP placements exactly. Byte accounting (peak_bytes,
  /// in_use_bytes) is identical either way.
  ProcMemory(const RunPlan& plan, ProcId proc, std::int64_t capacity,
             std::int64_t alignment = 1,
             mem::AllocPolicy policy = mem::AllocPolicy::kFirstFit,
             bool slab_arena = false);

  /// The slab classes `slab_arena = true` installs: the dominant rounded
  /// volatile sizes of this processor's plan (up to 8 classes, each backing
  /// at least 4 planned objects). Exposed so tests and replays can assert
  /// the derivation is deterministic.
  static mem::SlabConfig derive_slab_config(const RunPlan& plan, ProcId proc,
                                            std::int64_t alignment);

  /// True when execution at `pos` has crossed the allocated prefix, i.e. a
  /// MAP must run before the task at `pos` starts.
  bool needs_map(std::int32_t pos) const;

  /// Runs the MAP at `pos`. Throws NonExecutableError if even the current
  /// task's objects cannot be allocated after freeing every dead volatile
  /// (the schedule is non-executable under this capacity, Def. 6).
  MapResult perform_map(std::int32_t pos);

  /// Baseline (original RAPID) mode: allocates every volatile object at
  /// once; throws NonExecutableError if the total does not fit.
  void preallocate_all();

  /// Arena offset of a live object (permanent or allocated volatile).
  mem::Offset offset_of(DataId d) const;
  bool is_allocated(DataId d) const;

  std::int64_t peak_bytes() const { return arena_.stats().peak_in_use; }
  /// Bytes currently allocated (permanents + live volatiles). The tracer
  /// samples this after each MAP for the occupancy timeline.
  std::int64_t in_use_bytes() const { return arena_.stats().in_use; }
  const mem::Arena& arena() const { return arena_; }

 private:
  enum class VolState : std::uint8_t { kUnallocated, kAllocated, kFreed };

  const RunPlan& plan_;
  const ProcId proc_;
  mem::Arena arena_;

  std::unordered_map<DataId, mem::Offset> offsets_;  // live objects
  std::unordered_map<DataId, std::int32_t> vol_index_;  // -> plan volatiles
  std::vector<VolState> vol_state_;   // parallel to plan volatiles
  std::multimap<std::int32_t, DataId> allocated_by_last_pos_;
  std::int32_t alloc_upto_ = 0;
};

/// One MAP as recorded by the ProcMemory replay: everything the executor
/// needs to apply it without an allocator.
struct MapStep {
  /// Schedule position the MAP runs at, and the allocated prefix after it.
  std::int32_t pos = 0;
  std::int32_t alloc_upto = 0;
  /// Volatiles freed, in free order.
  std::vector<DataId> freed;
  /// Volatiles placed, in allocation order, with their arena offsets.
  std::vector<std::pair<DataId, mem::Offset>> placed;
  /// Address packages by owner, unstamped (the sender stamps at send time).
  std::vector<std::pair<ProcId, AddrPackage>> packages;
  /// Arena bytes in use after the step, and the arena's peak so far
  /// (allocations rolled back inside the MAP count towards it).
  std::int64_t in_use = 0;
  std::int64_t peak = 0;
};

/// One processor's memory plan.
struct ProcMemoryPlan {
  /// Placements made before the first task: the permanents, then in
  /// baseline mode every volatile.
  std::vector<std::pair<DataId, mem::Offset>> initial;
  /// Arena in-use and peak bytes after the initial placements.
  std::int64_t initial_in_use = 0;
  std::int64_t initial_peak = 0;
  /// The MAPs in execution order (none in baseline mode).
  std::vector<MapStep> steps;
  /// Peak arena bytes over the whole run.
  std::int64_t peak_bytes = 0;
  /// Largest offset + rounded size ever placed: the heap bytes the run
  /// touches. At least peak_bytes; larger when fragmentation spreads the
  /// live set.
  std::int64_t extent_bytes = 0;
};

/// Every processor's memory plan under one RunConfig's capacity, memory
/// mode and allocator, at the threaded executor's 8-byte alignment.
struct MemoryPlan {
  std::int64_t capacity_per_proc = 0;
  bool active_memory = true;
  mem::AllocPolicy alloc_policy = mem::AllocPolicy::kFirstFit;
  bool slab_arena = false;
  /// False when the plan is non-executable under the capacity (Def. 6):
  /// `failure` is the NonExecutableError text of the first failing
  /// processor, and `procs` is empty.
  bool executable = true;
  std::string failure;
  std::vector<ProcMemoryPlan> procs;
};

/// The memory plan of `plan` under `config`, built on first use and kept in
/// plan.memory_memo until a call with a different capacity, mode or
/// allocator replaces it. Thread-safe: concurrent callers with one config
/// get one plan object. Never throws on capacity failure (see
/// MemoryPlan::executable).
std::shared_ptr<const MemoryPlan> memory_plan(const RunPlan& plan,
                                              const RunConfig& config);

}  // namespace rapid::rt
