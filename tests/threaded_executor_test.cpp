#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "counter_app.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/map_engine.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/check.hpp"
#include "rapid/svc/admission.hpp"
#include "tsan.hpp"

namespace rapid::rt {
namespace {

using testing::CounterApp;

/// Asserts the executor's final heaps match the sequential interpretation.
void check_results(const CounterApp& app, const ThreadedExecutor& exec) {
  for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
    const auto bytes = exec.read_object(d);
    std::int64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    EXPECT_EQ(v, app.expected[d]) << app.graph.data(d).name;
  }
}

TEST(ThreadedExecutor, ComputesCorrectResultsWithAmpleMemory) {
  CounterApp app(2);
  ThreadedExecutor exec(app.plan, app.config(1 << 16), app.make_init(),
                        app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.tasks_executed, 20);
  check_results(app, exec);
}

TEST(ThreadedExecutor, ComputesCorrectResultsAtMinMem) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  check_results(app, exec);
  EXPECT_GT(r.avg_maps(), 1.0);  // recycling actually happened
  for (std::int64_t peak : r.peak_bytes_per_proc) {
    EXPECT_LE(peak, liveness.min_mem());
  }
}

TEST(ThreadedExecutor, ReportsNonExecutableBelowMinMem) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem() - 8),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  EXPECT_FALSE(r.executable);
  EXPECT_FALSE(r.failure.empty());
}

TEST(ThreadedExecutor, BackToBackExecutorsShareOneMemoryPlan) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  const RunConfig config = app.config(liveness.min_mem());
  const std::shared_ptr<const MemoryPlan> before =
      memory_plan(app.plan, config);
  for (int round = 0; round < 2; ++round) {
    ThreadedExecutor exec(app.plan, config, app.make_init(),
                          app.make_body());
    ASSERT_TRUE(exec.run().executable);
    check_results(app, exec);
    // The executor holds the memoized plan (this test, the memo slot and
    // the executor own it), not a private rebuild...
    EXPECT_EQ(before.use_count(), 3) << "round " << round;
    // ...and a rebuild would have replaced the memo with a new object.
    EXPECT_EQ(memory_plan(app.plan, config), before) << "round " << round;
  }
  const RunConfig wider = app.config(liveness.tot_mem());
  ThreadedExecutor exec(app.plan, wider, app.make_init(), app.make_body());
  ASSERT_TRUE(exec.run().executable);
  const std::shared_ptr<const MemoryPlan> after = memory_plan(app.plan, wider);
  EXPECT_NE(after, before);
  EXPECT_EQ(after->capacity_per_proc, liveness.tot_mem());
}

/// A capacity whose MAPs fail partway through the run is reported before
/// any rank starts: no task runs, and the failure is admission's text.
TEST(ThreadedExecutor, NonExecutableIsReportedBeforeAnyRankStarts) {
  const auto wl = num::build_shm_workload(
      "cholesky:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=dts");
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(wl->plan.num_procs);
  config.capacity_per_proc = wl->min_mem - 8;
  const svc::RunDemand demand = svc::compute_demand(wl->plan, config);
  ASSERT_FALSE(demand.executable);
  // A MAP failure, not a permanent overflow: ranks that started would run
  // tasks before it.
  ASSERT_NE(demand.failure.find("cannot allocate volatile inputs"),
            std::string::npos)
      << demand.failure;
  for (const TransportKind transport :
       {TransportKind::kInProc, TransportKind::kShm}) {
    if (RAPID_UNDER_TSAN && transport == TransportKind::kShm) continue;
    ThreadedOptions options;
    options.transport = transport;
    ThreadedExecutor exec(wl->plan, config, wl->make_init(),
                          wl->make_body(), options);
    const RunReport r = exec.run();
    EXPECT_FALSE(r.executable) << to_string(transport);
    EXPECT_EQ(r.failure_kind, FailureKind::kNonExecutable)
        << to_string(transport);
    EXPECT_EQ(r.failure, demand.failure) << to_string(transport);
    EXPECT_EQ(r.errors, std::vector<std::string>{demand.failure})
        << to_string(transport);
    EXPECT_EQ(r.tasks_executed, 0) << to_string(transport);
  }
}

TEST(ThreadedExecutor, BaselineModeMatches) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.tot_mem(), false),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.maps_per_proc[0], 0);
  check_results(app, exec);
}

TEST(ThreadedExecutor, MpoOrderAlsoCorrect) {
  CounterApp app(2, /*mpo=*/true);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  check_results(app, exec);
}

TEST(ThreadedExecutor, RepeatedTightRunsStayCorrect) {
  // Hammer the protocol: many runs at the exact memory floor; thread
  // interleavings differ, results must not.
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  for (int round = 0; round < 25; ++round) {
    ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                          app.make_init(), app.make_body());
    const RunReport r = exec.run();
    ASSERT_TRUE(r.executable) << r.failure;
    check_results(app, exec);
  }
}

TEST(ThreadedExecutor, WatchdogCatchesStalledProtocol) {
  // Fault injection: one task body blocks far beyond the watchdog window,
  // so global progress stops and the watchdog must abort the run with
  // ProtocolDeadlockError instead of hanging forever.
  CounterApp app(2);
  ThreadedOptions options;
  options.watchdog_seconds = 0.2;
  std::atomic<bool> stalled{false};
  ThreadedExecutor exec(
      app.plan, app.config(1 << 16), app.make_init(),
      [&](graph::TaskId t, ObjectResolver& resolver) {
        if (!stalled.exchange(true)) {
          std::this_thread::sleep_for(std::chrono::seconds(2));
        }
        app.make_body()(t, resolver);
      },
      options);
  EXPECT_THROW(exec.run(), ProtocolDeadlockError);
}

TEST(ThreadedExecutor, MultiSlotMailboxesAlsoCorrect) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  auto config = app.config(liveness.min_mem());
  config.mailbox_slots = 4;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  check_results(app, exec);
}

TEST(ThreadedExecutor, ReadObjectBeforeRunThrows) {
  CounterApp app(2);
  ThreadedExecutor exec(app.plan, app.config(1 << 16), app.make_init(),
                        app.make_body());
  EXPECT_THROW(exec.read_object(0), Error);
}

TEST(ThreadedExecutor, ReadObjectAfterNonExecutableRunThrows) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem() - 8),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_FALSE(r.executable);
  EXPECT_THROW(exec.read_object(0), Error);
}

TEST(ThreadedExecutor, OversubscribedProcsStayCorrect) {
  // More worker threads than objects-per-proc niceties or hardware cores:
  // the spin-then-park backoff must keep the protocol live and correct
  // when every thread fights for the same core.
  CounterApp app(8);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  check_results(app, exec);
}

TEST(ThreadedExecutor, TaskBodyErrorSurfacesAsExecutionFailed) {
  CounterApp app(2);
  ThreadedExecutor exec(
      app.plan, app.config(1 << 16), app.make_init(),
      [](graph::TaskId, ObjectResolver&) { throw std::runtime_error("bug"); });
  try {
    exec.run();
    FAIL() << "expected ExecutionFailedError";
  } catch (const ExecutionFailedError& e) {
    EXPECT_NE(std::string(e.what()).find("bug"), std::string::npos);
    ASSERT_FALSE(e.errors().empty());
  }
}

TEST(ThreadedExecutor, AllConcurrentFailuresAreRecorded) {
  // Two independent producer tasks, one per processor, rendezvous on a
  // barrier and then both throw, so two failures race into the executor:
  // the report and the exception must carry both, not just whichever
  // thread won.
  graph::TaskGraph g;
  const auto d0 = g.add_data("d0", 8, 0);
  const auto d1 = g.add_data("d1", 8, 1);
  const auto t0 = g.add_task("A0", {}, {d0}, 1.0);
  const auto t1 = g.add_task("A1", {}, {d1}, 1.0);
  g.finalize();
  sched::Schedule s;
  s.num_procs = 2;
  s.order = {{t0}, {t1}};
  s.rebuild_index(g.num_tasks());
  const RunPlan plan = build_run_plan(g, s);
  RunConfig config;
  config.capacity_per_proc = 1 << 10;
  config.active_memory = true;
  config.params = machine::MachineParams::cray_t3d(2);
  std::atomic<int> entered{0};
  ThreadedExecutor exec(
      plan, config, {},
      [&](graph::TaskId t, ObjectResolver&) {
        entered.fetch_add(1);
        // Wait (bounded) until the other processor's task has also
        // started, so neither failure can cancel the other pre-emptively.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (entered.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        throw std::runtime_error("task " + g.task(t).name + " failed");
      });
  try {
    exec.run();
    FAIL() << "expected ExecutionFailedError";
  } catch (const ExecutionFailedError& e) {
    EXPECT_GE(e.errors().size(), 2u) << e.what();
    for (const std::string& err : e.errors()) {
      EXPECT_NE(err.find("failed"), std::string::npos);
    }
  }
}

TEST(ThreadedExecutor, WritingNonOwnedObjectThrows) {
  CounterApp app(2);
  std::atomic<bool> violated{false};
  ThreadedExecutor exec(
      app.plan, app.config(1 << 16), app.make_init(),
      [&](graph::TaskId t, ObjectResolver& resolver) {
        // Try to write an object the task's processor does not own.
        const auto& task = app.graph.task(t);
        if (!task.reads.empty() && task.reads.front() != task.writes.front()) {
          try {
            resolver.write(task.reads.front());
          } catch (const Error&) {
            violated = true;
            throw;
          }
        }
        app.make_body()(t, resolver);
      });
  EXPECT_THROW(exec.run(), ExecutionFailedError);
  EXPECT_TRUE(violated.load());
}

}  // namespace
}  // namespace rapid::rt
