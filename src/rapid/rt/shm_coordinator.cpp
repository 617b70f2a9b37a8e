// The shm coordinator: run_shm (segment, forked worker processes,
// teardown), the liveness poll the progress monitor runs on shm (waitpid
// reaping, lease lapse, dead-rank diagnosis), and run_forked_worker — one
// rank's protocol loop inside a forked worker process, on the executor
// state the coordinator prepared. Worker processes trace straight into the
// caller's Trace, whose rings they share with the coordinator.
#include <signal.h>

#include "rapid/obs/metrics.hpp"
#include "rapid/rt/executor_impl.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

using Impl = ThreadedExecutor::Impl;

/// Declares rank `dead` dead: a structured diagnosis including every
/// survivor's wait that only the corpse could have satisfied, recorded as
/// the run's failure (coordinator slot) with the abort requested so the
/// survivors unwind.
void Impl::declare_dead(ProcId dead, const char* detected_by, int sig,
                        int code, double lease_age) {
  auto r = std::make_shared<ProcFailureReport>();
  r->dead_rank = dead;
  r->signal = sig;
  r->exit_code = code;
  r->detected_by = detected_by;
  r->lease_age_seconds = lease_age;
  const LightState dl = tp->light(dead);
  r->state_at_death = dl.state;
  r->pos_at_death = dl.pos;
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    if (q == dead || session->child(q).exited) continue;
    const LightState l = tp->light(q);
    const auto st = static_cast<ProcState>(l.state);
    OrphanedWait w;
    w.waiter = q;
    if (st == ProcState::kRecBlocked) {
      if (l.wait.object != graph::kInvalidData &&
          plan.graph->data(l.wait.object).owner == dead) {
        w.object = l.wait.object;
        w.version = l.wait.version;
        r->orphaned.push_back(w);
      } else if (l.wait.flag != graph::kInvalidTask &&
                 plan.schedule.proc_of_task[l.wait.flag] == dead) {
        w.flag_task = l.wait.flag;
        r->orphaned.push_back(w);
      }
    } else if (st == ProcState::kMapBlocked && l.wait.map_dest == dead) {
      w.map_blocked = true;
      r->orphaned.push_back(w);
    }
  }
  fail(graph::kInvalidProc, r->summary(), FailureKind::kProcFailure);
  proc_failure = std::move(r);
}

/// Monitor liveness poll, part 1: reap exited workers. A signal or an exit
/// code outside the kShmWorker* set is a process failure.
bool Impl::reap_dead_ranks() {
  session->poll();
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    ShmSession::Child& c = session->child(q);
    if (!c.exited || c.reported) continue;
    c.reported = true;
    if (c.signal != 0 || (c.exit_code != kShmWorkerClean &&
                          c.exit_code != kShmWorkerAborted &&
                          c.exit_code != kShmWorkerFailed)) {
      declare_dead(q, "waitpid", c.signal, c.exit_code,
                   session->transport().lease_age_seconds(q));
      return true;
    }
  }
  return false;
}

/// Monitor liveness poll, part 2: a rank that stopped beating is dead to
/// the protocol even if its process still exists (SIGSTOP, livelock), so
/// it is killed to make fail-stop true and reported. Beats pause for the
/// length of a task body, so a rank in EXE is exempt — unless it is
/// stopped, which a body never ends.
bool Impl::lease_lapsed() {
  ShmTransport& st = session->transport();
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    const ShmSession::Child& c = session->child(q);
    if (c.exited || st.worker_done(q)) continue;
    const LightState l = tp->light(q);
    const auto state = static_cast<ProcState>(l.state);
    if ((state == ProcState::kExe && !c.stopped) ||
        state == ProcState::kQuiescent || state == ProcState::kFailed) {
      continue;
    }
    const double age = l.lease_ns == 0 ? since_spawn.seconds()
                                       : st.lease_age_seconds(q);
    if (age > options.lease_timeout_seconds) {
      ::kill(c.pid, SIGKILL);
      declare_dead(q, "lease", SIGKILL, 0, age);
      return true;
    }
  }
  return false;
}

RunReport Impl::run_shm() {
  RunReport report = begin_run();
  session = ShmSession::create(ShmTransport::dims_for(plan, config),
                               options.lease_timeout_seconds);
  // Every rank is set up here, once: each worker inherits it at the fork,
  // and read_object reads the owner heaps through the same engines.
  if (!prepare_ranks(session->transport(), report)) {
    session.reset();
    return report;
  }

  Stopwatch wall;
  session->spawn_fork([this](ProcId q) { return run_forked_worker(q); });
  since_spawn.reset();
  monitor();

  // Teardown: whatever ended the monitor, no child may outlive the run.
  const bool clean = !proc_failure && !tp->any_failure() &&
                     tp->quiescent_count() >= plan.num_procs;
  if (!clean) {
    tp->request_abort();
    bell->ring();
    control_bell->ring();
  }
  if (!session->wait_all(
          std::max(2.0, 2.0 * options.lease_timeout_seconds))) {
    session->kill_all(SIGKILL);
    session->wait_all(5.0);
  }
  report.parallel_time_us = wall.seconds() * 1e6;
  ShmTransport& st = session->transport();
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    if (st.worker_done(q)) report.add_counters(q, st.worker_counters(q));
  }
  if (tracing) {
    report.metrics = std::make_shared<obs::MetricsSummary>(
        obs::derive_metrics(*trace));
  }

  if (!clean && !proc_failure && !tp->any_failure()) {
    // All children exited without quiescence or any recorded failure —
    // should be impossible; surface it (with each child's exit status and
    // last beat) rather than return a bogus clean report.
    report.failure_kind = FailureKind::kWatchdog;
    std::string detail = cat("shm run ended without quiescence or a "
                             "recorded failure (quiescent ",
                             tp->quiescent_count(), "/", plan.num_procs,
                             ")");
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      const ShmSession::Child& c = session->child(q);
      const LightState l = tp->light(q);
      detail += cat("; p", q, ": ",
                    c.exited
                        ? (c.signal != 0 ? cat("signal ", c.signal)
                                         : cat("exit ", c.exit_code))
                        : std::string("running"),
                    " state ", static_cast<int>(l.state), " pos ", l.pos);
    }
    report.failure = detail;
    report.errors.push_back(report.failure);
  }
  return finish_run(std::move(report));
}

/// One rank's run inside a forked worker process: the unchanged protocol
/// loop on the calling thread, over the Impl the coordinator prepared
/// before forking (every rank's state, the epochs, the trace baselines),
/// then the exit code and the counters published for the coordinator.
int Impl::run_forked_worker(ProcId q) {
  // Anything escaping the worker loop becomes a structured failure in the
  // segment, never a silent nonzero exit.
  try {
    tp->beat(q, static_cast<std::uint8_t>(ProcState::kStart), 0);
    worker(q);  // the full REC/EXE/SND/MAP/END loop, on this thread
    int rc = kShmWorkerClean;
    if (tp->rank_failed(q)) {
      rc = kShmWorkerFailed;
    } else if (tp->aborted() && tp->quiescent_count() < plan.num_procs) {
      rc = kShmWorkerAborted;
    }
    tp->publish_worker_done(q, finished_counters(q));
    return rc;
  } catch (const std::exception& e) {
    tp->fail_stop(q, FailureKind::kTaskError,
                  cat("shm worker p", q, ": ", e.what()));
    return kShmWorkerFailed;
  }
}

}  // namespace rapid::rt
