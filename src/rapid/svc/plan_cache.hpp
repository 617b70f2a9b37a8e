// Plan cache for the runtime service. Building a workload from its spec —
// matrix generation, ordering, scheduling, plan construction, and the
// admission replay — costs far more than a small run executes in, and a
// multi-tenant service sees the same specs again and again. The cache keys
// on everything that changes the plan or its byte demand: the spec string
// (which deterministically fixes the graph and processor count — spec
// equality implies plan equality, the shm transport's own invariant, and
// the entry records rt::plan_fingerprint as the graph hash) plus the
// capacity, memory mode, allocation policy and slab flag from the
// RunConfig. Entries are immutable and shared: co-resident runs of the same
// spec execute off one plan (the executor never writes through it), so a
// cache hit costs one shared_ptr bump.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/svc/admission.hpp"

namespace rapid::svc {

/// One immutable cache entry: the built workload (graph + plan + bodies),
/// its graph fingerprint, and the admission demand under the keyed config.
struct CachedPlan {
  std::string spec;
  std::shared_ptr<const num::ShmWorkload> workload;
  std::uint64_t fingerprint = 0;
  RunDemand demand;
};

class PlanCache {
 public:
  /// LRU capacity. perfbench's serve_mix sizes its cold tail against it.
  static constexpr std::size_t kMaxEntries = 32;

  /// Returns the cached entry for (spec, config), building it on a miss.
  /// Throws rapid::Error for a malformed or unknown spec (the service turns
  /// that into a rejection). The returned entry stays valid after eviction
  /// — holders share ownership.
  std::shared_ptr<const CachedPlan> get(const std::string& spec,
                                        const rt::RunConfig& config);

  std::int64_t hits() const;
  std::int64_t misses() const;
  std::size_t size() const;

 private:
  static std::string key(const std::string& spec,
                         const rt::RunConfig& config);

  mutable std::mutex m_;
  /// LRU order, most recent first; the map points into the list.
  std::list<std::pair<std::string, std::shared_ptr<const CachedPlan>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace rapid::svc
