// The shm coordinator: run_shm (segment, forked worker processes,
// teardown), the liveness poll the progress monitor runs on shm (waitpid
// reaping, lease lapse, dead-rank diagnosis), the merge of the workers'
// trace dumps, and run_forked_worker — one rank's protocol loop inside a
// forked worker process.
#include <filesystem>

#include <signal.h>
#include <unistd.h>

#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace_io.hpp"
#include "rapid/rt/executor_impl.hpp"
#include "rapid/support/log.hpp"
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

/// Merges the per-rank trace dumps the workers left in `dir` into the
/// session Trace (epoch-rebased; see obs/trace_io.hpp).
void Impl::merge_worker_traces(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    RAPID_WARN("shm trace merge: cannot read " << dir << ": "
                                               << ec.message());
    return;
  }
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < 11 || name[0] != 'p' ||
        name.rfind(".trace.bin") != name.size() - 10) {
      continue;
    }
    try {
      const obs::LoadedProcTrace lt =
          obs::load_proc_trace(entry.path().string());
      if (lt.proc >= 0 && lt.proc < trace->num_procs()) {
        obs::merge_proc_trace(trace, lt);
      }
    } catch (const Error& e) {
      RAPID_WARN("shm trace merge: skipping " << name << ": " << e.what());
    }
  }
}

RunReport Impl::run_shm() {
  RunReport report = begin_run();
  // Workers dump their rings into a fresh per-run directory, removed after
  // the merge, so no earlier run's dumps can leak into this trace.
  std::string trace_dir;
  if (tracing) {
    trace_dir = (std::filesystem::temp_directory_path() /
                 cat("rapid-trace-", ::getpid(), "-", now_ns() & 0xffffff))
                    .string();
  }
  try {
    session = ShmSession::create(ShmTransport::dims_for(plan, config),
                                 options.lease_timeout_seconds);
    attach_transport(session->transport());
    // Coordinator-side MAP engines for every rank: the offsets are
    // deterministic, so read_object and the baseline prefill agree with
    // the engines the workers build for themselves. No free hooks — the
    // coordinator never plays a protocol role.
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      setup_proc_state(q, /*install_free_hook=*/false);
    }
  } catch (const NonExecutableError& e) {
    session.reset();
    return report_nonexecutable(std::move(report), e);
  }
  setup_epochs_and_baseline();
  if (tracing) std::filesystem::create_directories(trace_dir);

  Stopwatch wall;
  session->spawn_fork(
      [this, &trace_dir](ProcId q) { return run_forked_worker(q, trace_dir); });
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
    merge_worker_traces(trace_dir);
    report.metrics = std::make_shared<obs::MetricsSummary>(
        obs::derive_metrics(*trace));
    std::error_code ec;
    std::filesystem::remove_all(trace_dir, ec);
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

/// One rank's run inside a forked worker process: a fresh Impl over the
/// inherited plan, task bodies, config and options (this process traces
/// only its own rank), the unchanged protocol loop on the calling thread,
/// then the counters published and the trace ring dumped for the
/// coordinator to merge.
int Impl::run_forked_worker(ProcId q, const std::string& trace_dir) {
  ShmTransport& transport = *tp;
  // A lambda so the catch below can turn *anything* escaping the worker
  // loop into a structured failure in the segment, never a silent nonzero
  // exit.
  auto inner = [&]() -> int {
    ThreadedOptions worker_options = options;
    obs::TraceConfig tc;
    tc.enabled = tracing;
    if (tracing) {
      tc.events_per_proc = static_cast<std::int32_t>(trace->capacity());
    }
    tc.sole_proc = q;  // this process records only its own rank
    obs::Trace local_trace(plan.num_procs, tc);
    worker_options.trace = tracing ? &local_trace : nullptr;

    Impl impl(plan, config, init, body, worker_options, nullptr);
    impl.reset_run_state();
    impl.attach_transport(transport);
    set_log_thread_proc(q);
    try {
      // MAP engines for every rank (offsets feed the baseline prefill and
      // the owner tables); the free hook only for the rank whose window
      // this process owns.
      for (ProcId r = 0; r < plan.num_procs; ++r) {
        impl.setup_proc_state(r, /*install_free_hook=*/r == q);
      }
    } catch (const std::exception& e) {
      impl.fail(q, e.what(), FailureKind::kNonExecutable);
      return kShmWorkerFailed;
    }
    impl.setup_epochs_and_baseline();
    if (impl.tracing) impl.record_heap_baseline(q);
    transport.beat(q, static_cast<std::uint8_t>(ProcState::kStart), 0);

    impl.worker(q);  // the full REC/EXE/SND/MAP/END loop, on this thread

    int rc = kShmWorkerClean;
    if (transport.rank_failed(q)) {
      rc = kShmWorkerFailed;
    } else if (transport.aborted() &&
               transport.quiescent_count() < plan.num_procs) {
      rc = kShmWorkerAborted;
    }
    transport.publish_worker_done(q, impl.finished_counters(q));
    if (impl.tracing) {
      const std::string path =
          cat(trace_dir, "/p", q, ".pid", ::getpid(), ".trace.bin");
      if (!obs::save_proc_trace(local_trace, q, path)) {
        RAPID_WARN("shm worker p" << q << ": failed to dump trace to "
                                  << path);
      }
    }
    return rc;
  };
  try {
    return inner();
  } catch (const std::exception& e) {
    transport.fail_stop(q, FailureKind::kTaskError,
                        cat("shm worker p", q, ": ", e.what()));
    return kShmWorkerFailed;
  }
}

}  // namespace rapid::rt
