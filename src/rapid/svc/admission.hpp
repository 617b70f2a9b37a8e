// Capacity-budget admission control for the runtime service.
//
// The paper's Def. 5/6 make a run's memory footprint statically knowable:
// the run's memory plan (rt::memory_plan, the MAP procedure replayed once
// and memoized on the RunPlan — the same plan the executor's ranks then
// apply) yields each processor's exact peak heap bytes before a single
// task runs. The service exploits that: a RunRequest is admitted only after
// its *exact* byte need — the sum of per-processor peaks under the run's
// own RunConfig (alignment 8, the threaded executor's mode) — is computed
// and reserved against the service-wide budget, so co-resident runs can
// never oversubscribe memory no matter how their MAPs interleave. A run
// that cannot fit is refused *up front* with a structured AdmissionReport
// naming the shortfall, never half-started.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"
#include "rapid/support/json.hpp"

namespace rapid::svc {

/// Exact memory demand of one run: a summary of its memory plan.
struct RunDemand {
  /// False when the plan is non-executable under the request's
  /// capacity_per_proc (Def. 6) — `failure` names the first failing
  /// processor and position, in the auditor's CAP-* vocabulary.
  bool executable = true;
  std::string failure;
  /// Peak arena bytes per processor over the whole replay (permanents plus
  /// the worst live volatile set, at the executor's 8-byte alignment).
  std::vector<std::int64_t> peak_bytes_per_proc;
  /// Largest offset + rounded size ever placed, per processor: the heap
  /// bytes a run touches (>= the peak, by the fragmentation). Reported, not
  /// reserved.
  std::vector<std::int64_t> extent_bytes_per_proc;
  /// Sum of the per-processor peaks: the bytes the service reserves.
  std::int64_t total_bytes = 0;
  /// MAPs in the memory plan (plan-cache telemetry; 0 in baseline mode).
  std::int64_t maps = 0;
};

/// Summarizes the memory plan of `plan` under `config` (active or baseline,
/// the request's allocation policy and slab flag, the threaded executor's
/// 8-byte alignment) as the exact demand. Fills the plan's memo, so the
/// executor that later runs `plan` under `config` reuses it. Never throws
/// on capacity failure — that comes back as executable == false so
/// admission can reject with a structured report.
RunDemand compute_demand(const rt::RunPlan& plan, const rt::RunConfig& config);

/// The admission decision for one submitted run.
enum class AdmissionVerdict : std::uint8_t {
  kAdmitted,  // need fits the budget's currently-available bytes
  kQueued,    // fits the total budget but must wait for reservations to free
  kRejected,  // can never run: need exceeds the whole budget, the plan is
              // non-executable under its own capacity, or the spec is bad
  kShed,      // dropped by overload policy: the bounded queue was full and
              // this run had the least chance of meeting its deadline
};

const char* to_string(AdmissionVerdict verdict);

/// Structured admission outcome, attached to every submitted run. For a
/// rejection the report names the exact shortfall; for a shed run the
/// overload state (queue depth, budget reserved) at the moment of the
/// decision.
struct AdmissionReport {
  AdmissionVerdict verdict = AdmissionVerdict::kRejected;
  std::int64_t run_id = -1;
  std::string spec;
  /// Exact bytes the run needs (0 when the spec never built).
  std::int64_t need_bytes = 0;
  /// The service-wide budget and how much of it was reserved by co-resident
  /// runs when the decision was taken.
  std::int64_t budget_bytes = 0;
  std::int64_t reserved_bytes = 0;
  /// Rejections only: need_bytes - budget_bytes when the run can never fit
  /// (0 for non-capacity rejections).
  std::int64_t shortfall_bytes = 0;
  /// Admission-queue depth after the decision.
  std::int32_t queue_depth = 0;
  std::string reason;

  JsonValue to_json() const;
};

}  // namespace rapid::svc
