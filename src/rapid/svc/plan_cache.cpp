#include "rapid/svc/plan_cache.hpp"

#include <utility>

#include "rapid/rt/plan.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::svc {

std::string PlanCache::key(const std::string& spec,
                           const rt::RunConfig& config) {
  return cat(spec, "|cap=", config.capacity_per_proc,
             "|active=", config.active_memory ? 1 : 0,
             "|policy=", static_cast<int>(config.alloc_policy),
             "|slab=", config.slab_arena ? 1 : 0);
}

std::shared_ptr<const CachedPlan> PlanCache::get(
    const std::string& spec, const rt::RunConfig& config) {
  const std::string k = key(spec, config);
  std::lock_guard<std::mutex> lock(m_);
  const auto it = index_.find(k);
  if (it != index_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  ++misses_;
  // Build under the lock: concurrent submitters of the same new spec would
  // otherwise race to do the expensive build twice; serializing misses is
  // the cheaper failure mode for a cache whose whole point is reuse.
  auto entry = std::make_shared<CachedPlan>();
  entry->spec = spec;
  entry->workload = std::shared_ptr<const num::ShmWorkload>(
      num::build_shm_workload(spec));
  entry->fingerprint = rt::plan_fingerprint(entry->workload->plan);
  entry->demand = compute_demand(entry->workload->plan, config);
  lru_.emplace_front(k, entry);
  index_[k] = lru_.begin();
  if (lru_.size() > kMaxEntries) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return entry;
}

std::int64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(m_);
  return hits_;
}

std::int64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(m_);
  return misses_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return lru_.size();
}

}  // namespace rapid::svc
