#include "rapid/rt/report.hpp"

#include <algorithm>

#include "rapid/obs/metrics.hpp"
#include "rapid/rt/proc_failure.hpp"

namespace rapid::rt {

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kNonExecutable: return "non-executable";
    case FailureKind::kTaskError: return "task-error";
    case FailureKind::kInjectedFault: return "injected-fault";
    case FailureKind::kDeadlock: return "deadlock";
    case FailureKind::kWatchdog: return "watchdog";
    case FailureKind::kIntegrity: return "integrity";
    case FailureKind::kRetriesExhausted: return "retries-exhausted";
    case FailureKind::kProcFailure: return "proc-failure";
    case FailureKind::kCancelled: return "cancelled";
  }
  return "?";
}

void RecoveryCounters::merge(const RecoveryCounters& other) {
  nacks_sent += other.nacks_sent;
  resends += other.resends;
  flag_resends += other.flag_resends;
  duplicate_suppressions += other.duplicate_suppressions;
  checksum_rejections += other.checksum_rejections;
  task_retries += other.task_retries;
}

void RunReport::add_counters(std::int32_t proc, const CounterBlock& block) {
  const auto q = static_cast<std::size_t>(proc);
  maps_per_proc[q] = static_cast<std::int32_t>(block[kCtrMaps]);
  peak_bytes_per_proc[q] = block[kCtrPeakBytes];
  content_messages += block[kCtrContentMessages];
  content_bytes += block[kCtrContentBytes];
  put_batches += block[kCtrPutBatches];
  flag_messages += block[kCtrFlagMessages];
  addr_packages += block[kCtrAddrPackages];
  addr_entries += block[kCtrAddrEntries];
  suspended_sends += block[kCtrSuspendedSends];
  tasks_executed += block[kCtrTasksExecuted];
  recovery.nacks_sent += block[kCtrNacksSent];
  recovery.resends += block[kCtrResends];
  recovery.flag_resends += block[kCtrFlagResends];
  recovery.duplicate_suppressions += block[kCtrDupSuppressions];
  recovery.checksum_rejections += block[kCtrChecksumRejections];
  recovery.task_retries += block[kCtrTaskRetries];
}

double RunReport::avg_maps() const {
  if (maps_per_proc.empty()) return 0.0;
  double total = 0.0;
  for (std::int32_t m : maps_per_proc) total += m;
  return total / static_cast<double>(maps_per_proc.size());
}

std::int64_t RunReport::peak_bytes() const {
  std::int64_t peak = 0;
  for (std::int64_t b : peak_bytes_per_proc) peak = std::max(peak, b);
  return peak;
}

double RunReport::idle_fraction() const {
  const double total =
      parallel_time_us * static_cast<double>(maps_per_proc.size());
  if (total <= 0.0) return 0.0;
  const double busy = compute_us + send_us + map_us;
  return std::max(0.0, 1.0 - busy / total);
}

JsonValue RunReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc["schema_version"] = kSchemaVersion;
  if (run_id >= 0) doc["run_id"] = run_id;
  doc["attempt_deadline_us"] = attempt_deadline_us;
  doc["executable"] = executable;
  doc["failure"] = failure;
  doc["failure_kind"] = to_string(failure_kind);
  JsonValue errs = JsonValue::array();
  for (const std::string& e : errors) errs.push_back(e);
  doc["errors"] = std::move(errs);
  doc["parallel_time_us"] = parallel_time_us;
  JsonValue maps = JsonValue::array();
  for (const std::int32_t m : maps_per_proc) maps.push_back(m);
  doc["maps_per_proc"] = std::move(maps);
  JsonValue peaks = JsonValue::array();
  for (const std::int64_t b : peak_bytes_per_proc) peaks.push_back(b);
  doc["peak_bytes_per_proc"] = std::move(peaks);
  doc["content_messages"] = content_messages;
  doc["content_bytes"] = content_bytes;
  doc["put_batches"] = put_batches;
  doc["flag_messages"] = flag_messages;
  doc["addr_packages"] = addr_packages;
  doc["addr_entries"] = addr_entries;
  doc["suspended_sends"] = suspended_sends;
  doc["tasks_executed"] = tasks_executed;
  JsonValue rec = JsonValue::object();
  rec["nacks_sent"] = recovery.nacks_sent;
  rec["resends"] = recovery.resends;
  rec["flag_resends"] = recovery.flag_resends;
  rec["duplicate_suppressions"] = recovery.duplicate_suppressions;
  rec["checksum_rejections"] = recovery.checksum_rejections;
  rec["task_retries"] = recovery.task_retries;
  rec["run_attempts"] = recovery.run_attempts;
  doc["recovery"] = std::move(rec);
  doc["transport"] = transport;
  if (proc_failure) doc["proc_failure"] = proc_failure->to_json();
  if (metrics) doc["metrics"] = metrics->to_json();
  return doc;
}

}  // namespace rapid::rt
