// The progress monitor: one loop for both transports. It decides whether a
// stalled run is slow, deadlocked, out of retries or dead, and it enforces
// the attempt deadline and cancel(). Stall snapshots and retry exhaustion
// are read from what every rank publishes in the segment, the same on both
// mappings. Only liveness differs by backend: on shm, waitpid reaping and
// lease lapse (shm_coordinator.cpp) produce the ProcFailureReport.
#include <algorithm>
#include <vector>

#include "rapid/rt/executor_impl.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

using Impl = ThreadedExecutor::Impl;

// ---- stall snapshots --------------------------------------------------------

/// Rank q's snapshot at `now`, built from the segment without q's
/// cooperation: the state and position of its last beat and, for a blocked
/// state, the wait record and suspended-send counts of its last blocked
/// pause, plus the version its window holds of the awaited object and its
/// mailbox occupancy.
ProcSnapshot Impl::snapshot(ProcId q, std::int64_t now) const {
  const LightState l = tp->light(q);
  ProcSnapshot s;
  s.proc = q;
  s.state = static_cast<ProcState>(l.state);
  s.pos = l.pos;
  s.order_size = static_cast<std::int32_t>(plan.procs[q].order.size());
  if (s.pos >= 0 && s.pos < s.order_size) {
    s.current_task = plan.procs[q].order[s.pos];
  }
  s.mailbox_packages = tp->mailbox_occupancy(q);
  if (!is_blocked(s.state)) return s;
  const WaitRecord& w = l.wait;
  if (s.state == ProcState::kRecBlocked) {
    s.waiting_object = w.object;
    s.waiting_version = w.version;
    s.waiting_flag_task = w.flag;
    if (w.object != graph::kInvalidData) {
      s.have_version =
          win[static_cast<std::size_t>(q)].received_version[w.object].load(
              std::memory_order_acquire);
    }
  } else if (s.state == ProcState::kMapBlocked) {
    s.mailbox_full_dest = w.map_dest;
  }
  s.suspended_by_dest.resize(static_cast<std::size_t>(plan.num_procs));
  for (ProcId r = 0; r < plan.num_procs; ++r) {
    const std::int64_t n = tp->suspended(q, r);
    s.suspended_by_dest[static_cast<std::size_t>(r)] = n;
    s.suspended_sends += n;
  }
  s.retry.object = w.object;
  s.retry.version = w.version;
  s.retry.flag_task = w.flag;
  s.retry.attempts = w.retry_attempts;
  s.retry.exhausted = w.exhausted;
  s.retry.waited_us = std::max<std::int64_t>(now - w.since_ns, 0) / 1000;
  return s;
}

/// Snapshots every processor and runs the wait-for-graph analysis.
StallReport Impl::collect_and_diagnose(double stalled_seconds) {
  const std::int64_t now = now_ns();
  std::vector<ProcSnapshot> snaps;
  snaps.reserve(static_cast<std::size_t>(plan.num_procs));
  for (ProcId q = 0; q < plan.num_procs; ++q) snaps.push_back(snapshot(q, now));
  StallReport report = diagnose_stall(plan, std::move(snaps),
                                      stalled_seconds, tp->failure_texts());
  report.attempt_deadline_us = options.attempt_deadline_us;
  return report;
}

/// Whether some waiter ran out of bounded re-requests and is still
/// blocked on that wait.
bool Impl::some_wait_exhausted() const {
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    const LightState l = tp->light(q);
    // The record is current only while the rank is still REC-blocked: a
    // healed wait moves the rank on without republishing it.
    if (l.wait.exhausted &&
        static_cast<ProcState>(l.state) == ProcState::kRecBlocked) {
      return true;
    }
  }
  return false;
}

/// Deadline/cancel poll. Returns true when it cancelled the run (the
/// monitor stops; workers unwind via the abort).
bool Impl::check_cancelled() {
  if (options.attempt_deadline_us > 0) {
    const auto elapsed_us =
        static_cast<std::int64_t>(since_run_start.seconds() * 1e6);
    if (elapsed_us >= options.attempt_deadline_us) {
      fail(graph::kInvalidProc,
           cat("run cancelled: attempt deadline of ",
               options.attempt_deadline_us, " us lapsed after ", elapsed_us,
               " us"),
           FailureKind::kCancelled);
      return true;
    }
  }
  if (cancel_requested.load(std::memory_order_acquire)) {
    std::string reason;
    {
      std::lock_guard<std::mutex> lock(cancel_m);
      reason = cancel_reason;
    }
    fail(graph::kInvalidProc, cat("run cancelled: ", reason),
         FailureKind::kCancelled);
    return true;
  }
  return false;
}

/// Heartbeat park bounded by the time left on the attempt deadline, so a
/// lapse is noticed promptly even when the heartbeat is coarse.
std::int64_t Impl::deadline_clamped(std::int64_t heartbeat_us) const {
  if (options.attempt_deadline_us <= 0) return heartbeat_us;
  const auto elapsed_us =
      static_cast<std::int64_t>(since_run_start.seconds() * 1e6);
  const std::int64_t remaining =
      std::max<std::int64_t>(options.attempt_deadline_us - elapsed_us, 500);
  return std::min(heartbeat_us, remaining);
}

/// The progress monitor (replaces the blind watchdog): parked on the
/// control doorbell, it samples the data doorbell on a heartbeat. After
/// kStallCheckSeconds without progress it collects a snapshot and builds
/// the wait-for graph — a genuine cycle (or a wait on a quiescent
/// processor) fails the run immediately with the StallReport; anything
/// else is slow progress and the run resumes. With recovery enabled, a
/// genuine diagnosis is held instead of failed: the re-request layer can
/// heal waits that are provably dead under fail-stop rules (a dropped
/// address package forms a real cycle that one NACK dissolves). The run
/// then fails when a waiter exhausted its bounded retries while global
/// progress is stopped — checked on every heartbeat past the stall window,
/// because exhaustion rings only the control bell — or when the
/// RetryPolicy-scaled watchdog budget expires. An unchanged bell across
/// the whole snapshot window is what makes the per-processor snapshots
/// mutually consistent: every unblocking event rings the bell, so "bell
/// unmoved" means no processor changed protocol state while the snapshots
/// were taken. On shm the loop also reaps dead worker processes and
/// polices heartbeat leases.
void Impl::monitor() {
  const double stall_after = std::min(kStallCheckSeconds, effective_watchdog);
  const std::int64_t heartbeat_us = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(stall_after * 1e6 / 4), 1000, 250000);
  std::uint64_t last = bell->value();
  Stopwatch since_progress;
  bool diagnosed = false;  // already analyzed this bell value
  std::shared_ptr<const StallReport> pending;  // slow-progress diagnosis
  for (;;) {
    // Control value read before the exit checks: a ring that lands after
    // the read makes the park return immediately, so run termination is
    // never charged a full heartbeat of latency.
    const std::uint64_t control_seen = control_bell->value();
    if (session && reap_dead_ranks()) break;
    if (tp->quiescent_count() >= plan.num_procs || tp->aborted()) break;
    if (check_cancelled()) break;
    // All children gone without quiescence is reported by run_shm.
    if (session && (session->all_exited() || lease_lapsed())) break;
    const std::uint64_t now = bell->value();
    if (now != last) {
      last = now;
      since_progress.reset();
      diagnosed = false;
      pending.reset();
    }
    const double stalled = since_progress.seconds();
    if (recovery_on && stalled > stall_after && some_wait_exhausted()) {
      auto report =
          std::make_shared<StallReport>(collect_and_diagnose(stalled));
      if (bell->value() != now) continue;  // progressed mid-snapshot
      if (some_wait_exhausted()) {
        report->retries_exhausted = true;
        stall_report = report;
        fail(graph::kInvalidProc,
             cat("recovery retries exhausted after ", fixed(stalled, 2),
                 " s without progress: ", report->summary()),
             FailureKind::kRetriesExhausted);
        break;
      }
      continue;  // the exhausted wait healed while we were snapshotting
    }
    if (stalled > stall_after && !diagnosed) {
      auto report =
          std::make_shared<StallReport>(collect_and_diagnose(stalled));
      if (bell->value() != now) continue;  // progressed mid-snapshot
      diagnosed = true;
      if (report->genuine_deadlock && !recovery_on) {
        stall_report = report;
        fail(graph::kInvalidProc,
             cat("protocol deadlock after ", fixed(stalled, 2), " s: ",
                 report->summary()),
             FailureKind::kDeadlock);
        break;
      }
      // Slow progress — or, with recovery on, a diagnosis the re-request
      // layer may yet dissolve: hold for the (scaled) watchdog.
      pending = std::move(report);
    }
    if (stalled > effective_watchdog) {
      if (!pending) {
        pending = std::make_shared<StallReport>(collect_and_diagnose(stalled));
      }
      stall_report = pending;
      fail(graph::kInvalidProc,
           cat("watchdog: no protocol progress for ", fixed(stalled, 2),
               " s: ", pending->summary()),
           FailureKind::kWatchdog);
      break;
    }
    control_bell->wait(control_seen, deadline_clamped(heartbeat_us));
  }
}

}  // namespace rapid::rt
