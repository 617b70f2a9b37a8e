#include "rapid/rt/map_engine.hpp"

#include <algorithm>

#include "rapid/support/checksum.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

std::uint32_t AddrPackage::checksum() const {
  std::uint32_t crc32 = crc32c_u64(static_cast<std::uint64_t>(reader), 0);
  crc32 = crc32c_u64(seq, crc32);
  for (const auto& [d, offset] : entries) {
    crc32 = crc32c_u64(static_cast<std::uint64_t>(d), crc32);
    crc32 = crc32c_u64(static_cast<std::uint64_t>(offset), crc32);
  }
  return crc32;
}

mem::SlabConfig ProcMemory::derive_slab_config(const RunPlan& plan,
                                               ProcId proc,
                                               std::int64_t alignment) {
  // Histogram of rounded volatile sizes — the population the MAP procedure
  // allocates and frees. std::map keeps the walk deterministic.
  std::map<std::int64_t, std::int64_t> counts;
  for (const auto& vol : plan.procs[proc].volatiles) {
    std::int64_t size = vol.size_bytes;
    if (size == 0) size = 1;
    const std::int64_t r = (size + alignment - 1) / alignment * alignment;
    ++counts[r];
  }
  // Dominant classes only: a class must amortize its cache over at least a
  // few objects, and more than 8 classes stops being a fast path.
  std::vector<std::pair<std::int64_t, std::int64_t>> ranked;  // (count, size)
  for (const auto& [size, count] : counts) {
    if (count >= 4) ranked.emplace_back(count, size);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;  // most objects first
    return a.second < b.second;                        // then smallest size
  });
  if (ranked.size() > 8) ranked.resize(8);
  mem::SlabConfig slab;
  for (const auto& [count, size] : ranked) slab.class_sizes.push_back(size);
  std::sort(slab.class_sizes.begin(), slab.class_sizes.end());
  return slab;
}

ProcMemory::ProcMemory(const RunPlan& plan, ProcId proc, std::int64_t capacity,
                       std::int64_t alignment, mem::AllocPolicy policy,
                       bool slab_arena)
    : plan_(plan),
      proc_(proc),
      arena_(capacity, alignment, policy,
             slab_arena ? derive_slab_config(plan, proc, alignment)
                        : mem::SlabConfig{}) {
  const ProcPlan& pp = plan.procs[proc];
  for (DataId d : pp.permanents) {
    const mem::Offset off = arena_.allocate(plan.graph->data(d).size_bytes);
    if (off == mem::kNullOffset) {
      throw NonExecutableError(
          cat("processor ", proc_, ": permanent objects (",
              pp.permanent_bytes, " bytes) exceed capacity ", capacity));
    }
    offsets_.emplace(d, off);
  }
  vol_state_.assign(pp.volatiles.size(), VolState::kUnallocated);
  for (std::size_t i = 0; i < pp.volatiles.size(); ++i) {
    vol_index_.emplace(pp.volatiles[i].object, static_cast<std::int32_t>(i));
  }
}

bool ProcMemory::needs_map(std::int32_t pos) const {
  return pos < static_cast<std::int32_t>(plan_.procs[proc_].order.size()) &&
         pos >= alloc_upto_;
}

MapResult ProcMemory::perform_map(std::int32_t pos) {
  const ProcPlan& pp = plan_.procs[proc_];
  MapResult result;

  // 1. Free every volatile object whose last access precedes `pos`. The
  // dead points were computed statically by the liveness analysis; freed
  // objects are never reallocated (the "allocated once" rule, §3.2).
  for (auto it = allocated_by_last_pos_.begin();
       it != allocated_by_last_pos_.end() && it->first < pos;) {
    const DataId d = it->second;
    arena_.deallocate(offsets_.at(d));
    offsets_.erase(d);
    vol_state_[vol_index_.at(d)] = VolState::kFreed;
    result.freed.push_back(d);
    it = allocated_by_last_pos_.erase(it);
  }

  // 2. Allocate forward along the execution chain.
  RAPID_CHECK(alloc_upto_ <= pos, "MAP ran behind the allocated prefix");
  std::int32_t k = pos;
  const auto n = static_cast<std::int32_t>(pp.order.size());
  for (; k < n; ++k) {
    const TaskRuntimePlan& tp = plan_.tasks[pp.order[k]];
    std::vector<DataId> just_allocated;
    bool fits = true;
    for (DataId d : tp.volatile_accesses) {
      const std::int32_t vi = vol_index_.at(d);
      if (vol_state_[vi] == VolState::kAllocated) continue;
      RAPID_CHECK(vol_state_[vi] == VolState::kUnallocated,
                  cat("volatile ", plan_.graph->data(d).name,
                      " accessed after its dead point"));
      const mem::Offset off =
          arena_.allocate(plan_.graph->data(d).size_bytes);
      if (off == mem::kNullOffset) {
        fits = false;
        break;
      }
      offsets_.emplace(d, off);
      vol_state_[vi] = VolState::kAllocated;
      just_allocated.push_back(d);
    }
    if (!fits) {
      // Roll back this task's partial allocations; the next MAP sits right
      // before it.
      for (DataId d : just_allocated) {
        arena_.deallocate(offsets_.at(d));
        offsets_.erase(d);
        vol_state_[vol_index_.at(d)] = VolState::kUnallocated;
      }
      break;
    }
    for (DataId d : just_allocated) {
      allocated_by_last_pos_.emplace(
          pp.volatiles[vol_index_.at(d)].last_pos, d);
      result.allocated.push_back(d);
    }
  }
  if (k == pos) {
    throw NonExecutableError(
        cat("processor ", proc_, ": cannot allocate volatile inputs of task ",
            plan_.graph->task(pp.order[pos]).name, " at position ", pos,
            " even after freeing all dead objects (capacity ",
            arena_.capacity(), " bytes)"));
  }
  alloc_upto_ = k;
  result.alloc_upto = k;

  // 3. Assemble address packages, one per owner processor.
  std::map<ProcId, AddrPackage> by_owner;
  for (DataId d : result.allocated) {
    const ProcId owner = plan_.graph->data(d).owner;
    AddrPackage& pkg = by_owner[owner];
    pkg.reader = proc_;
    pkg.entries.emplace_back(d, offsets_.at(d));
  }
  for (auto& [owner, pkg] : by_owner) {
    result.packages.emplace_back(owner, std::move(pkg));
  }
  return result;
}

void ProcMemory::preallocate_all() {
  const ProcPlan& pp = plan_.procs[proc_];
  for (std::size_t i = 0; i < pp.volatiles.size(); ++i) {
    const DataId d = pp.volatiles[i].object;
    const mem::Offset off = arena_.allocate(plan_.graph->data(d).size_bytes);
    if (off == mem::kNullOffset) {
      throw NonExecutableError(
          cat("processor ", proc_, ": preallocated volatile space does not "
              "fit in capacity ", arena_.capacity(), " bytes"));
    }
    offsets_.emplace(d, off);
    vol_state_[i] = VolState::kAllocated;
  }
  alloc_upto_ = static_cast<std::int32_t>(pp.order.size());
}

mem::Offset ProcMemory::offset_of(DataId d) const {
  const auto it = offsets_.find(d);
  RAPID_CHECK(it != offsets_.end(),
              cat("object ", plan_.graph->data(d).name,
                  " is not live on processor ", proc_));
  return it->second;
}

bool ProcMemory::is_allocated(DataId d) const {
  return offsets_.count(d) != 0;
}

namespace {

/// Whether `mp` was built for `config`'s capacity, mode and allocator.
bool built_for(const MemoryPlan& mp, const RunConfig& config) {
  return mp.capacity_per_proc == config.capacity_per_proc &&
         mp.active_memory == config.active_memory &&
         mp.alloc_policy == config.alloc_policy &&
         mp.slab_arena == config.slab_arena;
}

/// Replays processor p's MAPs on a ProcMemory at the executor's alignment
/// and records them. Throws NonExecutableError like the replay does.
ProcMemoryPlan replay_proc(const RunPlan& plan, ProcId p,
                           const RunConfig& config) {
  ProcMemory memory(plan, p, config.capacity_per_proc, /*alignment=*/8,
                    config.alloc_policy, config.slab_arena);
  const ProcPlan& pp = plan.procs[p];
  ProcMemoryPlan out;
  auto place = [&](std::vector<std::pair<DataId, mem::Offset>>& into,
                   DataId d) {
    const mem::Offset off = memory.offset_of(d);
    into.emplace_back(d, off);
    out.extent_bytes = std::max(
        out.extent_bytes, off + memory.arena().allocation_size(off));
  };
  for (DataId d : pp.permanents) place(out.initial, d);
  if (!config.active_memory) {
    memory.preallocate_all();
    for (const sched::VolatileLifetime& v : pp.volatiles) {
      place(out.initial, v.object);
    }
  }
  out.initial_in_use = memory.in_use_bytes();
  out.initial_peak = memory.peak_bytes();
  const auto n = static_cast<std::int32_t>(pp.order.size());
  for (std::int32_t pos = 0; pos < n; ++pos) {
    if (!memory.needs_map(pos)) continue;
    MapResult map = memory.perform_map(pos);
    MapStep step;
    step.pos = pos;
    step.alloc_upto = map.alloc_upto;
    step.freed = std::move(map.freed);
    step.placed.reserve(map.allocated.size());
    for (DataId d : map.allocated) place(step.placed, d);
    step.packages = std::move(map.packages);
    step.in_use = memory.in_use_bytes();
    step.peak = memory.peak_bytes();
    out.steps.push_back(std::move(step));
  }
  out.peak_bytes = memory.peak_bytes();
  return out;
}

std::shared_ptr<const MemoryPlan> build_memory_plan(const RunPlan& plan,
                                                    const RunConfig& config) {
  auto mp = std::make_shared<MemoryPlan>();
  mp->capacity_per_proc = config.capacity_per_proc;
  mp->active_memory = config.active_memory;
  mp->alloc_policy = config.alloc_policy;
  mp->slab_arena = config.slab_arena;
  mp->procs.reserve(static_cast<std::size_t>(plan.num_procs));
  try {
    for (ProcId p = 0; p < plan.num_procs; ++p) {
      mp->procs.push_back(replay_proc(plan, p, config));
    }
  } catch (const NonExecutableError& e) {
    mp->executable = false;
    mp->failure = e.what();  // already names the processor/position
    mp->procs.clear();
  }
  return mp;
}

}  // namespace

std::shared_ptr<const MemoryPlan> memory_plan(const RunPlan& plan,
                                              const RunConfig& config) {
  // Built under the lock: concurrent first callers wait for one build
  // instead of racing to replay the same MAPs twice.
  MemoryPlanSlot& slot = plan.memory_memo;
  std::lock_guard<std::mutex> lock(slot.m);
  if (!slot.plan || !built_for(*slot.plan, config)) {
    slot.plan = build_memory_plan(plan, config);
  }
  return slot.plan;
}

}  // namespace rapid::rt
