#include "rapid/svc/admission.hpp"

#include <memory>

#include "rapid/rt/map_engine.hpp"
#include "rapid/support/str.hpp"

namespace rapid::svc {

RunDemand compute_demand(const rt::RunPlan& plan,
                         const rt::RunConfig& config) {
  const std::shared_ptr<const rt::MemoryPlan> memory =
      rt::memory_plan(plan, config);
  RunDemand demand;
  if (!memory->executable) {
    demand.executable = false;
    demand.failure = memory->failure;
    return demand;
  }
  for (const rt::ProcMemoryPlan& proc : memory->procs) {
    demand.peak_bytes_per_proc.push_back(proc.peak_bytes);
    demand.extent_bytes_per_proc.push_back(proc.extent_bytes);
    demand.total_bytes += proc.peak_bytes;
    demand.maps += static_cast<std::int64_t>(proc.steps.size());
  }
  return demand;
}

const char* to_string(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmitted:
      return "admitted";
    case AdmissionVerdict::kQueued:
      return "queued";
    case AdmissionVerdict::kRejected:
      return "rejected";
    case AdmissionVerdict::kShed:
      return "shed";
  }
  return "?";
}

JsonValue AdmissionReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc["verdict"] = to_string(verdict);
  doc["run_id"] = run_id;
  doc["spec"] = spec;
  doc["need_bytes"] = need_bytes;
  doc["budget_bytes"] = budget_bytes;
  doc["reserved_bytes"] = reserved_bytes;
  doc["shortfall_bytes"] = shortfall_bytes;
  doc["queue_depth"] = queue_depth;
  doc["reason"] = reason;
  return doc;
}

}  // namespace rapid::svc
