// Stress test for the lock-free RMA data plane: runs the threaded executor
// heavily oversubscribed (num_procs at 2–4x hardware_concurrency, so every
// blocked state actually parks and every wakeup path is exercised) over a
// generated integer grid DAG with randomized task-body durations. Integer
// arithmetic makes the expected result exact: any missed release/acquire
// pairing, torn payload, or lost wakeup shows up as a wrong counter value,
// a TSan report (this test is in the TSan CI lane), or a watchdog trip
// (surfacing as ProtocolDeadlockError, which the test treats as failure).
// The discrete-event SimExecutor runs the same plan as a protocol oracle:
// both executors must agree on the task and content-message totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "counter_app.hpp"
#include "rapid/rt/faults.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/stall.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/stopwatch.hpp"
#include "tsan.hpp"

namespace rapid::rt {
namespace {

using testing::GridApp;
using testing::oversubscribed_procs;

void run_stress(int procs, bool tight_memory) {
  GridApp app(/*rows=*/6, /*cols=*/procs, procs);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(procs);
  config.active_memory = true;
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  config.capacity_per_proc =
      tight_memory ? liveness.min_mem() : liveness.tot_mem();

  // The SimExecutor as protocol oracle on the identical plan.
  const RunReport sim = simulate(app.plan, config);
  ASSERT_TRUE(sim.executable) << sim.failure;

  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body());
  // run() throwing ProtocolDeadlockError here would mean a watchdog trip —
  // a liveness bug in the lock-free plane; the test fails on the throw.
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  app.check_results(exec);
  EXPECT_EQ(r.tasks_executed, sim.tasks_executed);
  EXPECT_EQ(r.content_messages, sim.content_messages);
  EXPECT_EQ(r.flag_messages, sim.flag_messages);
}

TEST(DataPlaneStress, Oversubscribed2xAmpleMemory) {
  run_stress(oversubscribed_procs(2), /*tight_memory=*/false);
}

TEST(DataPlaneStress, Oversubscribed2xMinMemory) {
  run_stress(oversubscribed_procs(2), /*tight_memory=*/true);
}

TEST(DataPlaneStress, Oversubscribed4xMinMemory) {
  run_stress(oversubscribed_procs(4), /*tight_memory=*/true);
}

TEST(DataPlaneStress, RepeatedTightRunsVaryInterleavings) {
  const int procs = oversubscribed_procs(2);
  GridApp app(/*rows=*/4, /*cols=*/procs, procs);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(procs);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).min_mem();
  for (int round = 0; round < 5; ++round) {
    ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body());
    const RunReport r = exec.run();
    ASSERT_TRUE(r.executable) << r.failure;
    app.check_results(exec);
  }
}

// ---- fault-injection sweep -------------------------------------------------
//
// Each fault class perturbs message timings that a correct protocol must be
// insensitive to: delayed address packages (reordered delivery), delayed
// content-put publication (memcpy done, release store withheld), slowed task
// bodies, and forced park-timeout wakeups. 32 seeds per class on the
// counter-app DAG at MIN_MEM; every run must produce the exact sequential
// numerics and the same protocol message counts as the discrete-event
// simulator — and must never trip the stall monitor or watchdog (a throw of
// ProtocolDeadlockError here is a false positive and fails the sweep).

void run_fault_sweep(const std::string& preset) {
  constexpr int kProcs = 4;
  constexpr std::uint64_t kSeeds = 32;
  testing::CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());

  const RunReport sim = simulate(app.plan, config);
  ASSERT_TRUE(sim.executable) << sim.failure;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ThreadedOptions options;
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
             << ": stall monitor false positive:\n"
             << e.what();
    }
    EXPECT_EQ(r.failure_kind, FailureKind::kNone);
    EXPECT_EQ(r.tasks_executed, sim.tasks_executed)
        << preset << " seed " << seed;
    EXPECT_EQ(r.content_messages, sim.content_messages)
        << preset << " seed " << seed;
    EXPECT_EQ(r.flag_messages, sim.flag_messages)
        << preset << " seed " << seed;
  }
}

TEST(FaultSweep, AddressPackageDelays) { run_fault_sweep("addr"); }
TEST(FaultSweep, ContentPutPublicationDelays) { run_fault_sweep("put"); }
TEST(FaultSweep, TaskBodySlowdowns) { run_fault_sweep("slow"); }
TEST(FaultSweep, ForcedParkTimeouts) { run_fault_sweep("park"); }

TEST(FaultSweep, DelaysAlsoHoldOnTheGridGraph) {
  // One heavier spot-check per class family on the oversubscribed grid DAG,
  // where blocked states really park.
  const int procs = oversubscribed_procs(2);
  GridApp app(/*rows=*/4, /*cols=*/procs, procs);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(procs);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).min_mem();
  for (const char* preset : {"addr", "park"}) {
    ThreadedOptions options;
    options.faults = FaultPlan::preset(preset, /*seed=*/7);
    ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                          options);
    const RunReport r = exec.run();
    ASSERT_TRUE(r.executable) << preset << ": " << r.failure;
    app.check_results(exec);
  }
}

// ---- induced failures ------------------------------------------------------

TEST(FaultInjection, DroppedAddressPackageIsDiagnosedAsDeadlock) {
  // Drop the first address package processor 0 sends. The owner it was
  // destined for never learns p0's buffer addresses, its content sends to
  // p0 suspend forever, and p0 blocks waiting for that content: a genuine
  // wait-for cycle the stall monitor must prove and report long before the
  // watchdog deadline — on both transports, from the wait records and
  // suspended-send counts every rank publishes in the segment.
  constexpr int kProcs = 4;
  testing::CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  for (const TransportKind kind :
       {TransportKind::kInProc, TransportKind::kShm}) {
    if (kind == TransportKind::kShm && RAPID_UNDER_TSAN) continue;
    SCOPED_TRACE(to_string(kind));
    ThreadedOptions options;
    options.transport = kind;
    options.watchdog_seconds = 25.0;  // must NOT be what fires
    options.faults.drop_addr_src = 0;
    options.faults.drop_addr_nth = 1;
    ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                          options);
    Stopwatch elapsed;
    try {
      exec.run();
      ADD_FAILURE() << "expected ProtocolDeadlockError";
      continue;
    } catch (const ProtocolDeadlockError& e) {
      // Diagnosed by the stall monitor in seconds, not by the 25 s watchdog.
      EXPECT_LT(elapsed.seconds(), 10.0);
      ASSERT_NE(e.report(), nullptr) << e.what();
      const StallReport& report = *e.report();
      EXPECT_TRUE(report.genuine_deadlock);
      ASSERT_FALSE(report.cycle.empty()) << e.what();
      // p0 is part of the cycle: it waits for content whose sends are
      // suspended behind the dropped package.
      EXPECT_NE(std::find(report.cycle.begin(), report.cycle.end(), 0),
                report.cycle.end());
      ASSERT_EQ(report.procs.size(), static_cast<std::size_t>(kProcs));
      // The report names the blocked object on at least one content edge.
      bool has_content_edge = false;
      for (const WaitEdge& edge : report.edges) {
        if (edge.kind == WaitEdge::Kind::kContent) {
          has_content_edge = true;
          EXPECT_NE(edge.object, graph::kInvalidData);
        }
      }
      EXPECT_TRUE(has_content_edge) << e.what();
      // The suspended sends behind the dropped package appear as
      // address-package edges.
      bool has_addr_edge = false;
      for (const WaitEdge& edge : report.edges) {
        has_addr_edge |= edge.kind == WaitEdge::Kind::kAddrPackage;
      }
      EXPECT_TRUE(has_addr_edge) << e.what();
      // The rendered summary names states and the cycle for humans.
      const std::string text = report.summary();
      EXPECT_NE(text.find("wait-for cycle"), std::string::npos);
      // The JSON artifact names each edge's kind, so the address-package
      // edge is there without parsing `reason`.
      const std::string json = report.to_json().dump();
      EXPECT_NE(json.find("\"kind\": \"addr_package\""), std::string::npos)
          << json;
      // CI artifact: dump the structured report when a directory is given.
      if (const char* dir = std::getenv("RAPID_STALL_REPORT_DIR")) {
        std::ofstream out(std::string(dir) + "/stall_report_" +
                          to_string(kind) + ".json");
        out << json;
      }
    }
  }
}

TEST(FaultInjection, InjectedTaskThrowCancelsCooperatively) {
  constexpr int kProcs = 4;
  testing::CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  RunConfig config = app.config(liveness.min_mem());
  ThreadedOptions options;
  options.faults.throw_in_task = app.graph.num_tasks() / 2;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body(),
                        options);
  try {
    exec.run();
    FAIL() << "expected ExecutionFailedError";
  } catch (const ExecutionFailedError& e) {
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
    ASSERT_FALSE(e.errors().empty());
  }
}

TEST(FaultInjection, DisabledPlanIsIdentityAndDrawsAreDeterministic) {
  FaultPlan off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.addr_delay_us(0, 1, 1), 0);
  EXPECT_EQ(off.put_delay_us(0, 1, 1), 0);
  EXPECT_EQ(off.task_delay_us(0), 0);

  const FaultPlan a = FaultPlan::preset("addr", 42);
  const FaultPlan b = FaultPlan::preset("addr", 42);
  const FaultPlan c = FaultPlan::preset("addr", 43);
  bool any_nonzero = false, any_differs = false;
  for (std::int64_t i = 1; i <= 64; ++i) {
    EXPECT_EQ(a.addr_delay_us(0, 1, i), b.addr_delay_us(0, 1, i));
    any_nonzero |= a.addr_delay_us(0, 1, i) > 0;
    any_differs |= a.addr_delay_us(0, 1, i) != c.addr_delay_us(0, 1, i);
  }
  EXPECT_TRUE(any_nonzero);
  EXPECT_TRUE(any_differs);
  EXPECT_THROW(FaultPlan::preset("bogus", 1), Error);
}

}  // namespace
}  // namespace rapid::rt
