// The cross-process shm backend, end to end: fork-mode correctness on the
// seed workloads (exact integer results, correct factor residuals with >= 4
// worker processes), exec-mode via the rapid_shm_worker binary, and the
// fail-stop machinery — a seeded process kill in every protocol phase must
// end in a clean restarted run or a correct-rank ProcFailureReport, never a
// hang; a wedged-but-alive worker must lapse its lease and be killed.
//
// Excluded under ThreadSanitizer: TSan's runtime does not support the
// fork()-heavy multiprocess model (children deadlock in the TSan allocator).
// The CI shm lane runs this file under Release and ASan instead.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <unistd.h>
#include <sys/wait.h>

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

#if defined(__SANITIZE_THREAD__)
#define RAPID_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RAPID_UNDER_TSAN 1
#endif
#endif
#ifndef RAPID_UNDER_TSAN
#define RAPID_UNDER_TSAN 0
#endif

#define RAPID_SKIP_UNDER_TSAN()                                         \
  do {                                                                  \
    if (RAPID_UNDER_TSAN) {                                             \
      GTEST_SKIP() << "fork-based shm tests are incompatible with TSan"; \
    }                                                                   \
  } while (0)

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

// ---- fork-mode correctness -------------------------------------------------

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

// ---- trace capacity --------------------------------------------------------

// Worker rings take the coordinator Trace's capacity: a run recording more
// than 65,536 events on a rank keeps them all, and the merged trace reports
// no loss.
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

// A worker ring that overflows reports its loss through the dump: the
// merged trace counts it in dropped(), and what survived is exactly what
// was recorded minus what was dropped.
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

// ---- exec mode (rapid_shm_worker) ------------------------------------------

std::string worker_binary_path() {
  if (const char* env = std::getenv("RAPID_SHM_WORKER_BIN")) return env;
  // Default build layout: tests/<binary> and src/rapid/rt/rapid_shm_worker
  // under the same build root.
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string dir(buf);
  const std::size_t slash = dir.rfind('/');
  if (slash == std::string::npos) return {};
  dir.resize(slash);
  const std::string candidate = dir + "/../src/rapid/rt/rapid_shm_worker";
  return ::access(candidate.c_str(), X_OK) == 0 ? candidate : std::string();
}

void run_spawned_workload(const std::string& bin, const std::string& spec) {
  auto wl = num::build_shm_workload(spec);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(wl->plan.num_procs);
  config.active_memory = true;
  config.capacity_per_proc = wl->tot_mem;
  ThreadedOptions options = shm_options();
  options.shm_launch = ThreadedOptions::ShmLaunch::kSpawn;
  options.shm_worker_path = bin;
  options.workload_spec = spec;
  ThreadedExecutor exec(wl->plan, config, wl->make_init(), wl->make_body(),
                        options);
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << spec << ": " << r.failure;
  EXPECT_LT(wl->residual(exec), 1e-10) << spec;
}

TEST(ShmTransportRun, SpawnedWorkersRebuildThePlanFromSpec) {
  RAPID_SKIP_UNDER_TSAN();
  const std::string bin = worker_binary_path();
  if (bin.empty()) {
    GTEST_SKIP() << "rapid_shm_worker binary not found (set "
                    "RAPID_SHM_WORKER_BIN)";
  }
  run_spawned_workload(bin, "cholesky:grid=10,block=4,procs=4");
  // A paper stand-in matrix whose scale (0.1 + 0.2) only round-trips in
  // full precision: the worker re-parses it and must rebuild the same plan.
  run_spawned_workload(bin,
                       num::seed_spec("trisolve", 0.1 + 0.2, 6, 4, "mpo"));
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

// Beats and wait records land in the segment's per-rank control slots and
// read back through light() — this is what the coordinator's stall and
// orphan diagnosis is built from.
TEST(ShmTransportState, BeatsAndWaitRecordsReadBack) {
  ShmTransport::Dims dims;
  dims.num_procs = 2;
  dims.num_data = 4;
  dims.num_tasks = 4;
  dims.heap_bytes = 64;
  ShmRunSpec spec;
  spec.config.capacity_per_proc = 64;
  auto session = ShmSession::create(dims, spec);
  ShmTransport& st = session->transport();
  st.beat(1, /*state=*/3, /*pos=*/17);
  st.beat_wait(1, /*object=*/2, /*version=*/4, /*flag=*/graph::kInvalidTask,
               /*map_dest=*/graph::kInvalidProc, /*retry_attempts=*/2,
               /*exhausted=*/false);
  const LightState l = st.light(1);
  EXPECT_EQ(l.state, 3);
  EXPECT_EQ(l.pos, 17);
  EXPECT_EQ(l.waiting_object, 2);
  EXPECT_EQ(l.waiting_version, 4);
  EXPECT_EQ(l.waiting_flag, graph::kInvalidTask);
  EXPECT_EQ(l.retry_attempts, 2);
  EXPECT_FALSE(l.retries_exhausted);
  EXPECT_GT(l.lease_ns, 0);
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
  ShmRunSpec spec;
  spec.config.capacity_per_proc = 64;
  spec.lease_timeout_seconds = 0.2;
  auto session = ShmSession::create(dims, spec);
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
