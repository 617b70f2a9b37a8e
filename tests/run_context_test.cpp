// RunContext reuse: one context serves in-proc runs of different plans back
// to back — its crew grows to the largest num_procs, its one mapping to the
// largest layout — and every run must be indistinguishable from a run on a
// fresh executor: bit-exact object bytes and the simulator's counters. A
// run that ends in a task error, a cancellation or a NonExecutable report
// must leave the context reusable, and a second executor may not lease a
// context already in use. Named ThreadedRunContext so the TSan lane's
// `Threaded` filter runs them.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rapid/machine/params.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/recovery.hpp"
#include "rapid/rt/run_context.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"

namespace rapid::rt {
namespace {

RunConfig config_for(const num::ShmWorkload& wl) {
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(wl.plan.num_procs);
  config.active_memory = true;
  config.capacity_per_proc = wl.tot_mem;
  return config;
}

std::vector<std::vector<std::byte>> all_objects(const num::ShmWorkload& wl,
                                                const ThreadedExecutor& exec) {
  std::vector<std::vector<std::byte>> out;
  for (DataId d = 0; d < wl.graph().num_data(); ++d) {
    out.push_back(exec.read_object(d));
  }
  return out;
}

/// One spec's oracle: the object bytes of a run on a standalone executor
/// (a fresh mapping and fresh threads) and the simulator's counters.
struct Reference {
  std::unique_ptr<num::ShmWorkload> wl;
  RunConfig config;
  std::vector<std::vector<std::byte>> objects;
  RunReport sim;
};

Reference reference(const std::string& spec) {
  Reference ref;
  ref.wl = num::build_shm_workload(spec);
  ref.config = config_for(*ref.wl);
  ref.sim = simulate(ref.wl->plan, ref.config);
  ThreadedExecutor exec(ref.wl->plan, ref.config, ref.wl->make_init(),
                        ref.wl->make_body());
  const RunReport r = exec.run();
  EXPECT_TRUE(r.executable) << spec << ": " << r.failure;
  if (r.executable) ref.objects = all_objects(*ref.wl, exec);
  return ref;
}

/// Runs `ref`'s plan on `ctx` and checks it against the oracle.
void run_and_check(RunContext& ctx, const Reference& ref) {
  const num::ShmWorkload& wl = *ref.wl;
  ThreadedExecutor exec(ctx, wl.plan, ref.config, wl.make_init(),
                        wl.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << wl.spec << ": " << r.failure;
  EXPECT_EQ(all_objects(wl, exec), ref.objects) << wl.spec;
  EXPECT_EQ(r.tasks_executed, ref.sim.tasks_executed) << wl.spec;
  EXPECT_EQ(r.content_messages, ref.sim.content_messages) << wl.spec;
  EXPECT_EQ(r.content_bytes, ref.sim.content_bytes) << wl.spec;
  EXPECT_EQ(r.flag_messages, ref.sim.flag_messages) << wl.spec;
  EXPECT_EQ(r.maps_per_proc, ref.sim.maps_per_proc) << wl.spec;
}

std::int64_t layout_bytes(const Reference& ref) {
  return ShmTransport::segment_bytes(
      ShmTransport::dims_for(ref.wl->plan, ref.config));
}

const char* const kSmall = "grid:rows=8,cols=8,procs=2";
const char* const kLarge = "lu:grid=8,block=4,procs=4";

TEST(ThreadedRunContext, GrowsThenShrinksAcrossPlansBitExact) {
  const Reference small = reference(kSmall);
  const Reference large = reference(kLarge);
  ASSERT_LT(layout_bytes(small), layout_bytes(large));
  RunContext ctx;
  EXPECT_EQ(ctx.mapped_bytes(), 0);
  EXPECT_EQ(ctx.crew_size(), 0);

  run_and_check(ctx, small);
  EXPECT_EQ(ctx.crew_size(), 2);
  EXPECT_EQ(ctx.mapped_bytes(), layout_bytes(small));

  run_and_check(ctx, large);  // grows: four ranks, a larger mapping
  EXPECT_EQ(ctx.crew_size(), 4);
  EXPECT_EQ(ctx.mapped_bytes(), layout_bytes(large));
  const std::byte* base = ctx.mapping_base();

  run_and_check(ctx, small);  // shrinks: both kept, re-initialized in place
  EXPECT_EQ(ctx.crew_size(), 4);
  EXPECT_EQ(ctx.mapped_bytes(), layout_bytes(large));
  EXPECT_EQ(ctx.mapping_base(), base);
}

TEST(ThreadedRunContext, ReusableAfterTaskBodyError) {
  const Reference ref = reference(kSmall);
  const num::ShmWorkload& wl = *ref.wl;
  RunContext ctx;
  const TaskBody body = wl.make_body();
  const TaskId bad = wl.graph().num_tasks() / 2;
  for (const bool standard : {true, false}) {
    {
      ThreadedExecutor exec(ctx, wl.plan, ref.config, wl.make_init(),
                            [&](TaskId t, ObjectResolver& res) {
                              if (t != bad) return body(t, res);
                              if (standard) throw std::runtime_error("boom");
                              throw 42;  // must not escape the crew thread
                            });
      EXPECT_THROW(exec.run(), ExecutionFailedError);
    }
    run_and_check(ctx, ref);
  }
}

TEST(ThreadedRunContext, ReusableAfterCancelledRun) {
  const Reference ref = reference(kSmall);
  const num::ShmWorkload& wl = *ref.wl;
  RunContext ctx;
  const TaskBody body = wl.make_body();
  {
    ThreadedOptions options;
    options.attempt_deadline_us = 2000;
    ThreadedExecutor exec(
        ctx, wl.plan, ref.config, wl.make_init(),
        [&](TaskId t, ObjectResolver& res) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          body(t, res);
        },
        options);
    EXPECT_THROW(exec.run(), RunCancelledError);
  }
  run_and_check(ctx, ref);
}

TEST(ThreadedRunContext, ReusableAfterNonExecutableReport) {
  const Reference ref = reference(kSmall);
  const num::ShmWorkload& wl = *ref.wl;
  RunContext ctx;
  {
    RunConfig tiny = ref.config;
    tiny.capacity_per_proc = wl.min_mem / 4;
    ThreadedExecutor exec(ctx, wl.plan, tiny, wl.make_init(),
                          wl.make_body());
    const RunReport r = exec.run();
    EXPECT_FALSE(r.executable);
    EXPECT_EQ(r.failure_kind, FailureKind::kNonExecutable);
  }
  run_and_check(ctx, ref);
}

TEST(ThreadedRunContext, RestartedAttemptsReuseTheContext) {
  const Reference ref = reference(kSmall);
  const num::ShmWorkload& wl = *ref.wl;
  RunContext ctx;
  ThreadedOptions options;
  options.faults.throw_in_task = wl.graph().num_tasks() / 2;
  options.faults.induced_fault_runs = 1;  // the restart runs clean
  RecoveryRun run = run_with_recovery(wl.plan, ref.config, wl.make_init(),
                                      wl.make_body(), options, {}, &ctx);
  EXPECT_EQ(run.attempts, 2);
  ASSERT_TRUE(run.report.executable) << run.report.failure;
  EXPECT_EQ(all_objects(wl, *run.executor), ref.objects);
  EXPECT_EQ(ctx.crew_size(), 2);
  EXPECT_EQ(ctx.mapped_bytes(), layout_bytes(ref));
}

TEST(ThreadedRunContext, SecondLeaseFailsTheCheck) {
  const Reference ref = reference(kSmall);
  const num::ShmWorkload& wl = *ref.wl;
  RunContext ctx;
  {
    ThreadedExecutor first(ctx, wl.plan, ref.config, wl.make_init(),
                           wl.make_body());
    EXPECT_THROW(ThreadedExecutor(ctx, wl.plan, ref.config, wl.make_init(),
                                  wl.make_body()),
                 Error);
  }
  run_and_check(ctx, ref);  // the lease went with the first executor
}

}  // namespace
}  // namespace rapid::rt
