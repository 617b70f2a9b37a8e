// The cross-process shm backend, end to end: correctness on the seed
// workloads (exact integer results, correct factor residuals with >= 4
// forked worker processes), no segment outliving a SIGKILLed coordinator,
// and the fail-stop machinery — a seeded process kill in every protocol
// phase must end in a clean restarted run or a correct-rank
// ProcFailureReport, never a hang; a wedged-but-alive worker must lapse its
// lease and be killed.
//
// Excluded under ThreadSanitizer: TSan's runtime does not support the
// fork()-heavy multiprocess model (children deadlock in the TSan allocator).
// The CI shm lane runs this file under Release and ASan instead.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "counter_app.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/faults.hpp"
#include "rapid/rt/proc_failure.hpp"
#include "rapid/rt/recovery.hpp"
#include "rapid/rt/shm_transport.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/stall.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/support/str.hpp"
#include "tsan.hpp"

namespace rapid::rt {
namespace {

using testing::CounterApp;
using testing::GridApp;

ThreadedOptions shm_options() {
  ThreadedOptions options;
  options.transport = TransportKind::kShm;
  return options;
}

/// CI artifact: dump a ProcFailureReport as JSON when the shm lane exports
/// RAPID_PROC_FAILURE_DIR.
void dump_proc_failure(const std::string& name,
                       const ProcFailureReport& report) {
  if (const char* dir = std::getenv("RAPID_PROC_FAILURE_DIR")) {
    std::ofstream out(std::string(dir) + "/" + name + ".json");
    out << report.to_json().dump();
  }
}

// ---- correctness -----------------------------------------------------------

TEST(ShmTransportRun, Figure2ExactIntegersAcrossProcesses) {
  RAPID_SKIP_UNDER_TSAN();
  CounterApp app(4);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  const RunConfig config = app.config(liveness.min_mem());
  const RunReport sim = simulate(app.plan, config);
  ASSERT_TRUE(sim.executable) << sim.failure;

  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        shm_options());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.transport, "shm");
  EXPECT_EQ(r.failure_kind, FailureKind::kNone);
  // Counter identity holds across the process boundary: the protocol is
  // the same, only the window bytes live in a segment.
  EXPECT_EQ(r.tasks_executed, sim.tasks_executed);
  EXPECT_EQ(r.content_messages, sim.content_messages);
  EXPECT_EQ(r.content_bytes, sim.content_bytes);
  EXPECT_EQ(r.flag_messages, sim.flag_messages);
  // The coordinator's mapping of the segment holds the final owner heaps.
  for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
    const auto bytes = exec.read_object(d);
    std::int64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    EXPECT_EQ(v, app.expected[d]) << app.graph.data(d).name;
  }
}

TEST(ShmTransportRun, GridAppMinMemoryFourProcesses) {
  RAPID_SKIP_UNDER_TSAN();
  GridApp app(/*rows=*/5, /*cols=*/4, /*procs=*/4);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(4);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).min_mem();
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        shm_options());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  app.check_results(exec);
}

void run_workload_on_shm(const std::string& spec) {
  auto wl = num::build_shm_workload(spec);
  ASSERT_GE(wl->plan.num_procs, 4);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(wl->plan.num_procs);
  config.active_memory = true;
  config.capacity_per_proc = wl->tot_mem;
  ThreadedExecutor exec(wl->plan, config, wl->make_init(), wl->make_body(),
                        shm_options());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.transport, "shm");
  EXPECT_LT(wl->residual(exec), 1e-10) << spec;
  // Every deterministic counter the worker processes publish matches the
  // simulator oracle. put_batches and suspended_sends depend on timing and
  // are deliberately not compared.
  const RunReport sim = simulate(wl->plan, config);
  ASSERT_TRUE(sim.executable) << sim.failure;
  EXPECT_EQ(r.tasks_executed, sim.tasks_executed) << spec;
  EXPECT_EQ(r.content_messages, sim.content_messages) << spec;
  EXPECT_EQ(r.content_bytes, sim.content_bytes) << spec;
  EXPECT_EQ(r.flag_messages, sim.flag_messages) << spec;
  EXPECT_EQ(r.addr_packages, sim.addr_packages) << spec;
  EXPECT_EQ(r.addr_entries, sim.addr_entries) << spec;
  EXPECT_EQ(r.maps_per_proc, sim.maps_per_proc) << spec;
  EXPECT_EQ(r.peak_bytes_per_proc, sim.peak_bytes_per_proc) << spec;
}

TEST(ShmTransportRun, CholeskyResidualFourProcesses) {
  RAPID_SKIP_UNDER_TSAN();
  run_workload_on_shm("cholesky:grid=10,block=4,procs=4");
}

TEST(ShmTransportRun, LuResidualFourProcesses) {
  RAPID_SKIP_UNDER_TSAN();
  run_workload_on_shm("lu:grid=10,block=4,procs=4");
}

TEST(ShmTransportRun, TriSolveResidualFourProcesses) {
  RAPID_SKIP_UNDER_TSAN();
  run_workload_on_shm("trisolve:grid=10,block=4,procs=4,sched=mpo");
}

TEST(ShmTransportRun, NBodyResidualFourProcesses) {
  RAPID_SKIP_UNDER_TSAN();
  run_workload_on_shm("nbody:procs=4,sched=mpo");
}

// ---- coordinator death -----------------------------------------------------

/// /dev/shm entries carrying `pid` as a "-<pid>-" name component: where a
/// named POSIX segment created by that process would show up.
std::vector<std::string> dev_shm_entries_of(pid_t pid) {
  std::vector<std::string> out;
  const std::string needle = cat("-", static_cast<long>(pid), "-");
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) return out;
  while (const dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name.find(needle) != std::string::npos) out.push_back(name);
  }
  ::closedir(dir);
  return out;
}

/// Harness process body (exit code = verdict): forks a coordinator that
/// runs an shm executor with slowed bodies, SIGKILLs it once a worker is
/// inside a task body, reaps every worker it orphaned (this process is
/// their subreaper), and then requires that no segment of the coordinator
/// is left in /dev/shm. Leaked entries are removed after they are counted.
int sigkill_coordinator_mid_run() {
  ::setpgid(0, 0);  // the timeout path below kills the whole tree
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  constexpr int kProcs = 4;
  GridApp app(/*rows=*/10, /*cols=*/kProcs, kProcs);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(kProcs);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).tot_mem();
  int ready[2];
  if (::pipe(ready) != 0) return 10;
  const pid_t coordinator = ::fork();
  if (coordinator < 0) return 10;
  if (coordinator == 0) {
    ::close(ready[0]);
    const TaskBody base = app.make_body();
    const int signal_fd = ready[1];
    const TaskBody slow = [base, signal_fd](graph::TaskId t,
                                            ObjectResolver& r) {
      const char byte = 'x';
      (void)!::write(signal_fd, &byte, 1);  // a worker is mid-run
      ::usleep(30'000);
      base(t, r);
    };
    try {
      ThreadedExecutor exec(app.plan, config, app.make_init(), slow,
                            shm_options());
      exec.run();
    } catch (...) {
    }
    ::_exit(0);
  }
  ::close(ready[1]);
  pollfd pfd{ready[0], POLLIN, 0};
  char byte = 0;
  if (::poll(&pfd, 1, 20'000) != 1 || ::read(ready[0], &byte, 1) != 1) {
    ::kill(-::getpid(), SIGKILL);
  }
  ::kill(coordinator, SIGKILL);
  // Reap the coordinator and every worker it orphaned; the workers die
  // with their coordinator. A tree still alive after 30 s is killed, which
  // fails the test by signal.
  const Stopwatch sw;
  for (;;) {
    const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
    if (r < 0 && errno == ECHILD) break;
    if (r == 0) {
      if (sw.seconds() > 30.0) ::kill(-::getpid(), SIGKILL);
      ::usleep(5'000);
    }
  }
  const std::vector<std::string> leaked = dev_shm_entries_of(coordinator);
  for (const std::string& name : leaked) {
    std::error_code ec;
    std::filesystem::remove("/dev/shm/" + name, ec);
  }
  return leaked.empty() ? 0 : 1;
}

// A coordinator SIGKILLed mid-run never runs its teardown. Its workers
// die with it, and its segment with the last process that maps it:
// nothing the run created may outlive them in /dev/shm.
TEST(ShmTransportRun, SigkilledCoordinatorLeavesNoSegment) {
  RAPID_SKIP_UNDER_TSAN();
  const pid_t harness = ::fork();
  ASSERT_GE(harness, 0);
  if (harness == 0) ::_exit(sigkill_coordinator_mid_run());
  int status = 0;
  ASSERT_EQ(::waitpid(harness, &status, 0), harness);
  ASSERT_TRUE(WIFEXITED(status))
      << "the coordinator never reached a task body, or its workers "
         "never exited (signal "
      << (WIFSIGNALED(status) ? WTERMSIG(status) : 0) << ")";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << (WEXITSTATUS(status) == 1
              ? "a segment of the killed coordinator remains in /dev/shm"
              : "the harness could not fork the coordinator");
}

// ---- trace capacity --------------------------------------------------------

// Worker rings take the coordinator Trace's capacity: a run recording more
// than 65,536 events on a rank keeps them all, and the trace reports no
// loss.
TEST(ShmTrace, WorkerRingsTakeTheCoordinatorCapacity) {
  RAPID_SKIP_UNDER_TSAN();
  constexpr int kProcs = 4;
  GridApp app(/*rows=*/3000, /*cols=*/8, kProcs);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(kProcs);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).tot_mem();
  obs::TraceConfig tc;
  tc.events_per_proc = 1 << 18;
  obs::Trace trace(kProcs, tc);
  ThreadedOptions options = shm_options();
  options.trace = &trace;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_GT(trace.recorded(0), 65536);
  EXPECT_EQ(trace.total_dropped(), 0);
}

// A worker ring that overflows reports its loss: the trace counts it in
// dropped(), and what survived is exactly what was recorded minus what was
// dropped.
TEST(ShmTrace, WorkerRingOverflowCountsAsDropped) {
  RAPID_SKIP_UNDER_TSAN();
  constexpr int kProcs = 4;
  GridApp app(/*rows=*/50, /*cols=*/8, kProcs);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(kProcs);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).tot_mem();
  obs::TraceConfig tc;
  tc.events_per_proc = 64;
  obs::Trace trace(kProcs, tc);
  ThreadedOptions options = shm_options();
  options.trace = &trace;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  ASSERT_TRUE(exec.run().executable);
  EXPECT_GT(trace.total_dropped(), 0);
  for (int q = 0; q < kProcs; ++q) {
    EXPECT_EQ(trace.recorded(q) - trace.dropped(q),
              static_cast<std::int64_t>(trace.events(q).size()))
        << "p" << q;
  }
}

// A rank SIGKILLed mid-run keeps every record it finished: its ring is
// the coordinator's, so nothing waits on a clean-exit dump. Each record
// the coordinator reads is whole.
TEST(ShmTrace, KilledRankKeepsItsRecords) {
  RAPID_SKIP_UNDER_TSAN();
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  obs::Trace trace(kProcs);
  ThreadedOptions options = shm_options();
  options.trace = &trace;
  options.faults =
      FaultPlan::kill_proc_at(/*proc=*/1, FaultPlan::kKillExe, /*nth=*/1);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), app.make_body(), options);
  EXPECT_THROW(exec.run(), ProcFailureError);

  ASSERT_GT(trace.recorded(1), 0);
  // The kill site sits right after the rank records its EXE entry.
  const std::vector<obs::TraceEvent> killed = trace.events(1);
  EXPECT_EQ(killed.back().kind, obs::EventKind::kStateEnter);
  EXPECT_EQ(killed.back().a, static_cast<std::int32_t>(obs::ProtoState::kExe));
  for (int q = 0; q < kProcs; ++q) {
    for (const obs::TraceEvent& e : trace.events(q)) {
      ASSERT_LT(e.kind, obs::EventKind::kCount) << "p" << q;
    }
  }
}

// ---- kill sweep ------------------------------------------------------------
//
// The acceptance sweep: a seeded SIGKILL in each of the four protocol
// phases (REC / EXE / SND / MAP) x 16 seeds. Under run_with_recovery the
// run must either complete clean on the first attempt (the site never
// fired on that seed's rank) or fail-stop with a ProcFailureReport naming
// exactly the killed rank and then restart clean. A hang fails the suite
// via the ctest timeout; the executor's own watchdog fires long before.

void kill_sweep(std::int32_t phase, const char* phase_name) {
  constexpr int kProcs = 4;
  constexpr std::uint64_t kSeeds = 16;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  const RunConfig config = app.config(liveness.min_mem());
  int fired = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto rank = static_cast<graph::ProcId>(seed % kProcs);
    const std::int64_t nth = 1 + static_cast<std::int64_t>(seed / kProcs) % 2;
    ThreadedOptions options = shm_options();
    options.faults = FaultPlan::kill_proc_at(rank, phase, nth);
    options.faults.induced_fault_runs = 1;  // restarts run clean
    options.lease_timeout_seconds = 3.0;
    RunRecoveryOptions ropts;
    ropts.max_run_attempts = 2;
    RecoveryRun rec = run_with_recovery(app.plan, config, app.make_init(),
                                        app.make_body(), options, ropts);
    ASSERT_TRUE(rec.report.executable)
        << phase_name << " seed " << seed << ": " << rec.report.failure;
    for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
      const auto bytes = rec.executor->read_object(d);
      std::int64_t v = 0;
      std::memcpy(&v, bytes.data(), sizeof(v));
      ASSERT_EQ(v, app.expected[d])
          << phase_name << " seed " << seed << ": " << app.graph.data(d).name;
    }
    if (rec.attempts > 1) {
      // The kill fired: the failed attempt must carry a structured report
      // naming exactly the rank the plan killed.
      ASSERT_EQ(rec.attempt_proc_failures.size(), 1u)
          << phase_name << " seed " << seed;
      const ProcFailureReport& pf = *rec.attempt_proc_failures.front();
      EXPECT_EQ(pf.dead_rank, rank) << phase_name << " seed " << seed;
      EXPECT_EQ(pf.signal, SIGKILL) << phase_name << " seed " << seed;
      EXPECT_FALSE(pf.summary().empty());
      dump_proc_failure(cat("kill_", phase_name, "_seed", seed), pf);
      ++fired;
    }
  }
  // The sweep must actually exercise the fail-stop path, not vacuously
  // pass because no site ever fired.
  EXPECT_GT(fired, 0) << phase_name
                      << ": no seed ever reached its kill site";
}

TEST(ShmKillSweep, RecPhase) {
  RAPID_SKIP_UNDER_TSAN();
  kill_sweep(FaultPlan::kKillRec, "rec");
}
TEST(ShmKillSweep, ExePhase) {
  RAPID_SKIP_UNDER_TSAN();
  kill_sweep(FaultPlan::kKillExe, "exe");
}
TEST(ShmKillSweep, SndPhase) {
  RAPID_SKIP_UNDER_TSAN();
  kill_sweep(FaultPlan::kKillSnd, "snd");
}
TEST(ShmKillSweep, MapPhase) {
  RAPID_SKIP_UNDER_TSAN();
  kill_sweep(FaultPlan::kKillMap, "map");
}

// A direct run (no recovery wrapper) must throw ProcFailureError with the
// structured report attached, and last_report() must carry it too.
TEST(ShmKillSweep, DirectRunThrowsProcFailureError) {
  RAPID_SKIP_UNDER_TSAN();
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  const RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options = shm_options();
  options.faults =
      FaultPlan::kill_proc_at(/*proc=*/1, FaultPlan::kKillExe, /*nth=*/1);
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  try {
    exec.run();
    FAIL() << "a killed rank must fail the run";
  } catch (const ProcFailureError& e) {
    ASSERT_NE(e.report(), nullptr);
    EXPECT_EQ(e.report()->dead_rank, 1);
    EXPECT_EQ(e.report()->signal, SIGKILL);
    EXPECT_EQ(e.report()->detected_by, "waitpid");
    const std::string json = e.report()->to_json().dump();
    EXPECT_NE(json.find("\"dead_rank\""), std::string::npos);
    dump_proc_failure("direct_kill_exe_rank1", *e.report());
  }
  EXPECT_EQ(exec.last_report().failure_kind, FailureKind::kProcFailure);
  ASSERT_NE(exec.last_report().proc_failure, nullptr);
  EXPECT_EQ(exec.last_report().proc_failure->dead_rank, 1);
}

// The kill fault class must be inert on the in-process backend: a thread
// cannot die independently of the run, so the same plan completes clean.
TEST(ShmKillSweep, KillPlanIsInertInProcess) {
  CounterApp app(4);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedOptions options;  // inproc
  options.faults =
      FaultPlan::kill_proc_at(/*proc=*/1, FaultPlan::kKillExe, /*nth=*/1);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), app.make_body(), options);
  const RunReport r = exec.run();
  EXPECT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.failure_kind, FailureKind::kNone);
}

// ---- recovery escalation ---------------------------------------------------

// One fault, one answer on both transports: an address package and every
// re-request are lost, so the waiter exhausts its two re-requests after
// about 1.2 s. The monitor already diagnosed the stall at 0.5 s under the
// same data-bell value (exhaustion rings only the control bell); it must
// still escalate the exhaustion at its next heartbeat, not hold the run
// until the 6 s watchdog.
TEST(ShmRecovery, ExhaustionAfterFirstDiagnosisEscalates) {
  CounterApp app(4);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  const RunConfig config = app.config(liveness.min_mem());
  for (const TransportKind kind :
       {TransportKind::kInProc, TransportKind::kShm}) {
    if (kind == TransportKind::kShm && RAPID_UNDER_TSAN) continue;
    ThreadedOptions options;
    options.transport = kind;
    options.retry = RetryPolicy{2, 400000, 1.0};
    options.watchdog_seconds = 6.0;
    options.faults.drop_addr_src = 0;
    options.faults.drop_addr_nth = 1;
    options.faults.drop_nacks = true;
    ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                          options);
    Stopwatch elapsed;
    try {
      exec.run();
      ADD_FAILURE() << to_string(kind) << ": expected retries exhausted";
    } catch (const ProtocolDeadlockError& e) {
      ASSERT_NE(e.report(), nullptr) << to_string(kind) << ": " << e.what();
      EXPECT_TRUE(e.report()->retries_exhausted) << to_string(kind);
      // The exhausted wait is read from the rank's published wait record.
      EXPECT_NE(e.report()->summary().find("EXHAUSTED"), std::string::npos)
          << to_string(kind) << ": " << e.report()->summary();
      // The monitor's text is never cut to a fixed-size segment slot.
      EXPECT_NE(std::string(e.what()).find(e.report()->summary()),
                std::string::npos)
          << to_string(kind) << ": " << e.what();
    }
    EXPECT_LT(elapsed.seconds(), 3.0) << to_string(kind);
    EXPECT_EQ(exec.last_report().failure_kind,
              FailureKind::kRetriesExhausted)
        << to_string(kind);
  }
}

// ---- control-segment state -------------------------------------------------

// Beats, wait records and suspended-send counts land in the segment's
// per-rank control slots and read back through light() and suspended() on
// both mappings — the stall snapshots and the orphan diagnosis are built
// from them. Only the shared mapping stamps a lease.
TEST(ShmTransportState, BeatsAndWaitRecordsReadBack) {
  ShmTransport::Dims dims;
  dims.num_procs = 2;
  dims.num_data = 4;
  dims.num_tasks = 4;
  dims.heap_bytes = 64;
  for (const bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared mapping" : "private mapping");
    auto tp = ShmTransport::create(dims, shared);
    tp->beat(0, /*state=*/3, /*pos=*/5);
    WaitRecord w;
    w.object = 2;
    w.version = 4;
    w.retry_attempts = 2;
    w.since_ns = 123456789;
    tp->set_suspended(1, /*dest=*/0, 3);
    tp->beat_wait(1, /*state=*/4, /*pos=*/17, w);
    const LightState l = tp->light(1);
    EXPECT_EQ(l.state, 4);
    EXPECT_EQ(l.pos, 17);
    EXPECT_EQ(l.wait.object, 2);
    EXPECT_EQ(l.wait.version, 4);
    EXPECT_EQ(l.wait.flag, graph::kInvalidTask);
    EXPECT_EQ(l.wait.map_dest, graph::kInvalidProc);
    EXPECT_EQ(l.wait.retry_attempts, 2);
    EXPECT_FALSE(l.wait.exhausted);
    EXPECT_EQ(l.wait.since_ns, 123456789);
    EXPECT_EQ(tp->suspended(1, 0), 3);
    EXPECT_EQ(tp->suspended(1, 1), 0);
    EXPECT_EQ(tp->suspended(0, 1), 0);
    const LightState l0 = tp->light(0);
    EXPECT_EQ(l0.state, 3);
    EXPECT_EQ(l0.pos, 5);
    if (shared) {
      EXPECT_GT(l.lease_ns, 0);
      EXPECT_GT(l0.lease_ns, 0);
    } else {
      EXPECT_EQ(l.lease_ns, 0);
      EXPECT_EQ(l0.lease_ns, 0);
    }
  }
}

// ---- lease lapse -----------------------------------------------------------

// Transport level: a worker that beats once and then goes silent in a
// leasable state ages its lease; workers that finished (done flag) do not
// count. Exercises the heartbeat records without the executor on top.
TEST(ShmLease, SilentWorkerAgesItsLease) {
  RAPID_SKIP_UNDER_TSAN();
  ShmTransport::Dims dims;
  dims.num_procs = 2;
  dims.num_data = 2;
  dims.num_tasks = 2;
  dims.heap_bytes = 64;
  auto session = ShmSession::create(dims, /*lease_timeout_seconds=*/0.2);
  ShmTransport& st = session->transport();
  session->spawn_fork([&st](graph::ProcId q) -> int {
    st.beat(q, /*state=*/1, /*pos=*/0);
    if (q == 0) {
      for (;;) ::pause();  // wedged: alive, never beats again
    }
    return kShmWorkerClean;
  });
  Stopwatch sw;
  while (st.lease_age_seconds(0) < 0.5 && sw.seconds() < 10.0) {
    ::usleep(10'000);
  }
  EXPECT_GE(st.lease_age_seconds(0), 0.5);
  session->kill_all(SIGKILL);
  EXPECT_TRUE(session->wait_all(5.0));
}

// A rank stopped inside a task body cannot finish it: it loses the EXE
// lease exemption and is reported by the lease, instead of leaving the run
// to the watchdog.
TEST(ShmLease, RankStoppedInsideTaskBodyLapses) {
  RAPID_SKIP_UNDER_TSAN();
  CounterApp app(4);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  const TaskBody base = app.make_body();
  const graph::TaskId victim = app.plan.procs[1].order.front();
  const TaskBody stopping = [base, victim](graph::TaskId t,
                                           ObjectResolver& r) {
    if (t == victim) ::raise(SIGSTOP);
    base(t, r);
  };
  ThreadedOptions options = shm_options();
  options.lease_timeout_seconds = 0.5;
  options.watchdog_seconds = 10.0;
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), stopping, options);
  Stopwatch elapsed;
  try {
    exec.run();
    ADD_FAILURE() << "a stopped rank must fail the run";
  } catch (const ProcFailureError& e) {
    ASSERT_NE(e.report(), nullptr);
    EXPECT_EQ(e.report()->dead_rank, 1);
    EXPECT_EQ(e.report()->detected_by, "lease");
    EXPECT_EQ(static_cast<ProcState>(e.report()->state_at_death),
              ProcState::kExe);
  }
  EXPECT_LT(elapsed.seconds(), 5.0);
}

// Executor level: every worker SIGSTOPped mid-run. Blocked ranks stop
// beating in a leasable state, the coordinator declares the first lapsed
// rank dead (detected_by == "lease"), SIGKILLs the stopped process, and
// fail-stops with a report instead of hanging.
TEST(ShmLease, StoppedWorkersLapseAndFailStop) {
  RAPID_SKIP_UNDER_TSAN();
  constexpr int kProcs = 4;
  GridApp app(/*rows=*/10, /*cols=*/kProcs, kProcs);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(kProcs);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).tot_mem();
  // Slow the bodies down so the run is mid-flight when the stopper hits.
  const TaskBody base = app.make_body();
  const TaskBody slow = [base](graph::TaskId t, ObjectResolver& r) {
    ::usleep(30'000);
    base(t, r);
  };

  // A watcher *process* (forked before the executor forks workers, so the
  // single-threaded-coordinator rule holds): after 300 ms it SIGSTOPs every
  // sibling worker — every other child of the test process.
  const pid_t self = ::getpid();
  const pid_t watcher = ::fork();
  ASSERT_GE(watcher, 0);
  if (watcher == 0) {
    ::usleep(300'000);
    DIR* proc = ::opendir("/proc");
    if (proc != nullptr) {
      while (dirent* ent = ::readdir(proc)) {
        const long pid = std::strtol(ent->d_name, nullptr, 10);
        if (pid <= 0 || pid == static_cast<long>(::getpid())) continue;
        char path[64];
        std::snprintf(path, sizeof(path), "/proc/%ld/stat", pid);
        std::FILE* f = std::fopen(path, "r");
        if (f == nullptr) continue;
        long ppid = -1;
        // /proc/<pid>/stat: pid (comm) state ppid ...
        if (std::fscanf(f, "%*d %*s %*c %ld", &ppid) == 1 &&
            ppid == static_cast<long>(self)) {
          ::kill(static_cast<pid_t>(pid), SIGSTOP);
        }
        std::fclose(f);
      }
      ::closedir(proc);
    }
    ::_exit(0);
  }

  ThreadedOptions options = shm_options();
  options.lease_timeout_seconds = 0.5;
  ThreadedExecutor exec(app.plan, config, app.make_init(), slow, options);
  try {
    exec.run();
    // Legal only if the whole run finished before the stopper fired.
  } catch (const ProcFailureError& e) {
    ASSERT_NE(e.report(), nullptr);
    EXPECT_EQ(e.report()->detected_by, "lease");
    EXPECT_GE(e.report()->lease_age_seconds, 0.5);
    EXPECT_GE(e.report()->dead_rank, 0);
    EXPECT_LT(e.report()->dead_rank, kProcs);
    dump_proc_failure("lease_sigstop", *e.report());
  }
  int status = 0;
  ::waitpid(watcher, &status, 0);
}

}  // namespace
}  // namespace rapid::rt
