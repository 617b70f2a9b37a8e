// Tests for the self-healing protocol layer: integrity-checked RMA
// (checksums on content puts and address packages), bounded re-request
// recovery (NACKs, idempotent resends, retry exhaustion), task-level retry
// of transient errors, and run-level restart (run_with_recovery). The
// fail-stop behaviour of the same fault classes — what happens when
// recovery is OFF — is covered by data_plane_stress_test.cpp; this file
// asserts the complementary claim: with recovery ON, every injected fault
// class completes with the exact sequential numerics and zero escalations,
// and detected-but-unrecoverable situations escalate with the exhausted
// wait attached.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "counter_app.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/reference.hpp"
#include "rapid/rt/faults.hpp"
#include "rapid/rt/recovery.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/stall.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/sparse/ordering.hpp"
#include "rapid/support/stopwatch.hpp"

namespace rapid::rt {
namespace {

using testing::CounterApp;
using testing::GridApp;
using testing::oversubscribed_procs;

ThreadedOptions recovery_options() {
  ThreadedOptions options;
  options.retry = RetryPolicy::standard();
  return options;
}

/// CI artifact: dump a (merged) RunReport as JSON when the recovery lane
/// exports RAPID_RECOVERY_REPORT_DIR.
void dump_report(const std::string& name, const RunReport& report) {
  if (const char* dir = std::getenv("RAPID_RECOVERY_REPORT_DIR")) {
    std::ofstream out(std::string(dir) + "/" + name + ".json");
    out << report.to_json().dump();
  }
}

// ---- recovery sweep --------------------------------------------------------
//
// Every fault class — including the two new detected-fault classes, payload
// corruption and package duplication, which the fail-stop design cannot
// survive — must complete under recovery with the exact sequential numerics,
// failure_kind kNone, and zero ProtocolDeadlockError escalations. 32 seeds
// per class on the counter-app DAG at MIN_MEM.

void run_recovery_sweep(const std::string& preset) {
  constexpr int kProcs = 4;
  constexpr std::uint64_t kSeeds = 32;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());

  const RunReport sim = simulate(app.plan, config);
  ASSERT_TRUE(sim.executable) << sim.failure;

  RunReport merged;  // counters accumulated across all seeds
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ThreadedOptions options = recovery_options();
    options.faults = FaultPlan::preset(preset, seed);
    ASSERT_TRUE(options.faults.enabled());
    RunReport r;
    try {
      ThreadedExecutor exec(app.plan, config, app.make_init(),
                            app.make_body(), options);
      r = exec.run();
      ASSERT_TRUE(r.executable) << preset << " seed " << seed << ": "
                                << r.failure;
      for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
        const auto bytes = exec.read_object(d);
        std::int64_t v = 0;
        std::memcpy(&v, bytes.data(), sizeof(v));
        ASSERT_EQ(v, app.expected[d])
            << preset << " seed " << seed << ": " << app.graph.data(d).name;
      }
    } catch (const ProtocolDeadlockError& e) {
      FAIL() << preset << " seed " << seed
             << ": recovery escalated a healable fault:\n"
             << e.what();
    }
    EXPECT_EQ(r.failure_kind, FailureKind::kNone);
    EXPECT_EQ(r.tasks_executed, sim.tasks_executed)
        << preset << " seed " << seed;
    merged.recovery.merge(r.recovery);
    merged.tasks_executed += r.tasks_executed;
    merged.content_messages += r.content_messages;
  }
  // The detected-fault classes must actually exercise the healing paths:
  // corruption forces checksum rejections and clean resends; duplication
  // forces sequence-number suppressions. (The delay classes need no healing
  // — the protocol tolerates them outright — so no counter floor there.)
  if (preset == "corrupt") {
    EXPECT_GT(merged.recovery.checksum_rejections, 0);
    EXPECT_GT(merged.recovery.resends, 0);
    EXPECT_GT(merged.recovery.nacks_sent, 0);
  }
  if (preset == "dup") {
    EXPECT_GT(merged.recovery.duplicate_suppressions, 0);
  }
  dump_report("recovery_sweep_" + preset, merged);
}

TEST(RecoverySweep, AddressPackageDelays) { run_recovery_sweep("addr"); }
TEST(RecoverySweep, ContentPutPublicationDelays) { run_recovery_sweep("put"); }
TEST(RecoverySweep, TaskBodySlowdowns) { run_recovery_sweep("slow"); }
TEST(RecoverySweep, ForcedParkTimeouts) { run_recovery_sweep("park"); }
TEST(RecoverySweep, PayloadCorruption) { run_recovery_sweep("corrupt"); }
TEST(RecoverySweep, PackageDuplication) { run_recovery_sweep("dup"); }

// ---- re-request healing ----------------------------------------------------

TEST(Recovery, DroppedAddressPackageIsHealedByReRequest) {
  // The exact scenario the fail-stop design diagnoses as a genuine deadlock
  // (FaultInjection.DroppedAddressPackageIsDiagnosedAsDeadlock): p0's first
  // address package is lost, so the owner's sends to p0 suspend forever.
  // With recovery enabled the blocked waiter's NACK carries its own buffer
  // address (it always knows it — the package was built from its MAP), the
  // owner installs it and the CQ dispatches the suspended send: the run
  // completes with exact numerics instead of failing.
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options = recovery_options();
  options.faults.drop_addr_src = 0;
  options.faults.drop_addr_nth = 1;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  Stopwatch elapsed;
  const RunReport r = exec.run();  // a throw here fails the test
  EXPECT_LT(elapsed.seconds(), 10.0);
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.failure_kind, FailureKind::kNone);
  EXPECT_GT(r.recovery.nacks_sent, 0);
  for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
    const auto bytes = exec.read_object(d);
    std::int64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    ASSERT_EQ(v, app.expected[d]) << app.graph.data(d).name;
  }
  dump_report("recovery_dropped_package", r);
}

TEST(Recovery, DisabledRecoveryStillFailsFailStop) {
  // The same drop with recovery left disabled must keep the PR 3 contract:
  // a diagnosed ProtocolDeadlockError, not a silent hang or a heal.
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options;  // retry.max_attempts == 0: recovery off
  options.faults.drop_addr_src = 0;
  options.faults.drop_addr_nth = 1;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  EXPECT_THROW(exec.run(), ProtocolDeadlockError);
}

TEST(Recovery, ExhaustedRetriesEscalateWithRetryHistory) {
  // Drop the address package AND every re-request: the waiter's bounded
  // retries run out, and only then does the run escalate — as
  // ProtocolDeadlockError whose StallReport records the exhausted wait.
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options = recovery_options();
  options.faults.drop_addr_src = 0;
  options.faults.drop_addr_nth = 1;
  options.faults.drop_nacks = true;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  Stopwatch elapsed;
  try {
    exec.run();
    FAIL() << "expected ProtocolDeadlockError (retries exhausted)";
  } catch (const ProtocolDeadlockError& e) {
    EXPECT_LT(elapsed.seconds(), 15.0);  // not the 30 s watchdog
    ASSERT_NE(e.report(), nullptr) << e.what();
    const StallReport& report = *e.report();
    EXPECT_TRUE(report.retries_exhausted);
    // At least one processor is blocked in an exhausted wait with the
    // policy's full attempt count.
    bool found_exhausted = false;
    for (const ProcSnapshot& s : report.procs) {
      const RetryRecord& rec = s.retry;
      if (rec.exhausted) {
        found_exhausted = true;
        EXPECT_EQ(rec.attempts, RetryPolicy::standard().max_attempts);
        EXPECT_GT(rec.waited_us, 0);
      }
    }
    EXPECT_TRUE(found_exhausted) << report.summary();
    EXPECT_NE(report.summary().find("EXHAUSTED"), std::string::npos);
    // The dropped re-requests were still counted on the sender side.
    EXPECT_GT(exec.last_report().recovery.nacks_sent, 0);
    EXPECT_EQ(exec.last_report().failure_kind,
              FailureKind::kRetriesExhausted);
  }
}

// ---- integrity (checksums) -------------------------------------------------

TEST(Recovery, CorruptionWithoutRecoveryFailsStop) {
  // Payload corruption with checksums on but recovery off is a detected,
  // unrecoverable fault: the run must fail (kIntegrity), never return wrong
  // numerics. Corruption is probabilistic per (object, version, dest), so
  // sweep seeds until at least one run actually drew a corruption.
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  bool saw_integrity_failure = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ThreadedOptions options;  // recovery off, checksum on (default)
    options.faults = FaultPlan::preset("corrupt", seed);
    ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                          options);
    try {
      const RunReport r = exec.run();
      // No corruption drawn this seed: numerics must be exact.
      ASSERT_TRUE(r.executable) << r.failure;
      EXPECT_EQ(r.recovery.checksum_rejections, 0);
      for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
        const auto bytes = exec.read_object(d);
        std::int64_t v = 0;
        std::memcpy(&v, bytes.data(), sizeof(v));
        ASSERT_EQ(v, app.expected[d]);
      }
    } catch (const ExecutionFailedError& e) {
      saw_integrity_failure = true;
      EXPECT_NE(std::string(e.what()).find("integrity"), std::string::npos);
      EXPECT_EQ(exec.last_report().failure_kind, FailureKind::kIntegrity);
      EXPECT_GT(exec.last_report().recovery.checksum_rejections, 0);
    }
  }
  EXPECT_TRUE(saw_integrity_failure)
      << "no seed in 1..8 drew a corruption; the fail-stop path is untested";
}

// ---- duplicate replay idempotence ------------------------------------------

TEST(Recovery, DuplicateReplayIsIdempotentOnTheGrid) {
  // Package duplication on the oversubscribed grid DAG: replays land both
  // before and after the original is consumed, and the per-sender sequence
  // numbers must suppress every one without disturbing the numerics.
  const int procs = oversubscribed_procs(2);
  GridApp app(/*rows=*/4, /*cols=*/procs, procs);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(procs);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).min_mem();
  ThreadedOptions options = recovery_options();
  options.faults = FaultPlan::preset("dup", /*seed=*/7);
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  app.check_results(exec);
  EXPECT_GT(r.recovery.duplicate_suppressions, 0);
}

TEST(Recovery, DuplicateReplayIsIdempotentOnCholesky) {
  // Same property on a real numeric kernel: duplicated address packages
  // under active memory must not perturb the factorization.
  constexpr int kProcs = 4;
  sparse::CscMatrix a = sparse::grid_laplacian_2d(8, 8);
  a = a.permuted_symmetric(sparse::nested_dissection_2d(8, 8));
  num::CholeskyApp app = num::CholeskyApp::build(std::move(a), 4, kProcs);
  const auto assignment = sched::owner_compute_tasks(app.graph(), kProcs);
  const auto params = machine::MachineParams::cray_t3d(kProcs);
  const auto schedule =
      sched::schedule_rcp(app.graph(), assignment, kProcs, params);
  const RunPlan plan = build_run_plan(app.graph(), schedule);
  RunConfig config;
  config.params = params;
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph(), schedule).min_mem();
  ThreadedOptions options = recovery_options();
  options.faults = FaultPlan::preset("dup", /*seed=*/3);
  ThreadedExecutor exec(plan, config, app.make_init(), app.make_body(),
                        options);
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  const auto l = app.extract_l_dense(exec);
  EXPECT_LT(num::cholesky_residual(app.matrix(), l), 1e-10);
  EXPECT_GT(r.recovery.duplicate_suppressions, 0);
}

// ---- task-level retry ------------------------------------------------------

TEST(Recovery, TransientTaskErrorIsRetriedInPlace) {
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options = recovery_options();
  options.faults.transient_throw_in_task = app.graph.num_tasks() / 2;
  options.faults.transient_throw_count = 2;  // throws twice, then succeeds
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.recovery.task_retries, 2);
  for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
    const auto bytes = exec.read_object(d);
    std::int64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    ASSERT_EQ(v, app.expected[d]) << app.graph.data(d).name;
  }
}

TEST(Recovery, TransientErrorWithoutRecoveryFailsTheRun) {
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options;  // recovery off
  options.faults.transient_throw_in_task = app.graph.num_tasks() / 2;
  options.faults.transient_throw_count = 1;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  EXPECT_THROW(exec.run(), ExecutionFailedError);
}

TEST(Recovery, PersistentTransientErrorExhaustsTaskRetries) {
  // A task that throws on every attempt exhausts the in-place retries and
  // the run fails — the outer run_with_recovery ring is the next resort.
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options = recovery_options();
  options.faults.transient_throw_in_task = app.graph.num_tasks() / 2;
  options.faults.transient_throw_count = 1000;  // never succeeds
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  EXPECT_THROW(exec.run(), ExecutionFailedError);
  EXPECT_EQ(exec.last_report().recovery.task_retries,
            RetryPolicy::standard().max_attempts);
}

// ---- run-level restart -----------------------------------------------------

TEST(Recovery, RunWithRecoveryRestartsAfterInducedFailure) {
  // A hard injected task failure on attempt 1 only (induced_fault_runs = 1):
  // the first run fails, the restart runs clean, and the merged report
  // carries both attempts' counters and the attempt history.
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options = recovery_options();
  options.faults.throw_in_task = app.graph.num_tasks() / 2;
  options.faults.induced_fault_runs = 1;
  const RecoveryRun out = run_with_recovery(
      app.plan, config, app.make_init(), app.make_body(), options);
  ASSERT_TRUE(out.report.executable) << out.report.failure;
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(out.report.recovery.run_attempts, 2);
  ASSERT_EQ(out.attempt_failures.size(), 1u);
  EXPECT_NE(out.attempt_failures[0].find("injected fault"),
            std::string::npos);
  ASSERT_NE(out.executor, nullptr);
  for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
    const auto bytes = out.executor->read_object(d);
    std::int64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    ASSERT_EQ(v, app.expected[d]) << app.graph.data(d).name;
  }
  dump_report("recovery_run_restart", out.report);
}

TEST(Recovery, RunWithRecoveryGivesUpAfterMaxAttempts) {
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options = recovery_options();
  options.faults.throw_in_task = app.graph.num_tasks() / 2;
  // induced on every attempt: all restarts fail the same way
  RunRecoveryOptions ropts;
  ropts.max_run_attempts = 2;
  const RecoveryRun out = run_with_recovery(
      app.plan, config, app.make_init(), app.make_body(), options, ropts);
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure_kind, FailureKind::kInjectedFault);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(out.report.recovery.run_attempts, 2);
  ASSERT_EQ(out.attempt_failures.size(), 2u);
  for (const std::string& failure : out.attempt_failures) {
    EXPECT_NE(failure.find("injected fault"), std::string::npos) << failure;
  }
  EXPECT_EQ(out.failure, out.attempt_failures.back());
  // The last attempt's executor survives with its partial report.
  ASSERT_NE(out.executor, nullptr);
  EXPECT_EQ(out.executor->last_report().failure, out.failure);
}

TEST(Recovery, RunWithRecoveryReportsNonExecutableWithoutRestarting) {
  // Capacity failures are deterministic: restarting cannot help, so the
  // report comes back immediately with executable == false and one attempt.
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  RunConfig config = app.config(/*capacity=*/8);  // absurdly small
  const RecoveryRun out = run_with_recovery(
      app.plan, config, app.make_init(), app.make_body(), recovery_options());
  EXPECT_FALSE(out.report.executable);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.report.failure_kind, FailureKind::kNonExecutable);
}

// ---- clean-run hygiene -----------------------------------------------------

TEST(Recovery, CleanRunHasZeroRecoveryCounters) {
  // No faults: the recovery layer must be pure observation — zero NACKs,
  // resends, suppressions, rejections, and retries, with checksums on and
  // recovery armed. Deadlines are set far beyond the run's duration so a
  // slow scheduler (1-core TSan) cannot lapse one and fire a spurious —
  // harmless but nonzero — re-request.
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options = recovery_options();
  options.retry.base_delay_us = 10'000'000;  // no deadline lapses cleanly
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.recovery.nacks_sent, 0);
  EXPECT_EQ(r.recovery.resends, 0);
  EXPECT_EQ(r.recovery.flag_resends, 0);
  EXPECT_EQ(r.recovery.duplicate_suppressions, 0);
  EXPECT_EQ(r.recovery.checksum_rejections, 0);
  EXPECT_EQ(r.recovery.task_retries, 0);
  EXPECT_EQ(r.recovery.run_attempts, 1);
}

TEST(Recovery, RunReportJsonCarriesRecoveryBlock) {
  RunReport r;
  r.recovery.nacks_sent = 3;
  r.recovery.resends = 2;
  r.recovery.run_attempts = 2;
  const std::string json = r.to_json().dump();
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"nacks_sent\""), std::string::npos);
  EXPECT_NE(json.find("\"run_attempts\""), std::string::npos);
}

TEST(Recovery, RetryPolicyDeadlinesAreExponentialAndBounded) {
  const RetryPolicy p = RetryPolicy::standard();
  ASSERT_TRUE(p.enabled());
  EXPECT_EQ(p.delay_us(1), p.base_delay_us);
  EXPECT_GT(p.delay_us(2), p.delay_us(1));
  EXPECT_GT(p.delay_us(3), p.delay_us(2));
  std::int64_t sum = 0;
  for (std::int32_t a = 1; a <= p.max_attempts; ++a) sum += p.delay_us(a);
  EXPECT_EQ(p.total_wait_us(), sum);
  const RetryPolicy off;
  EXPECT_FALSE(off.enabled());
}

}  // namespace
}  // namespace rapid::rt
