// Co-resident executor isolation — the TSan target behind the service
// layer. Several ThreadedExecutor instances share one immutable RunPlan and
// run simultaneously from different host threads; each must produce the
// exact sequential numerics and exactly its own counters. Any cross-run
// bleed — a shared mutable global, a counter incremented by a neighbor's
// worker, a data race on the plan — shows up as a numeric diff, a counter
// mismatch against the solo baseline, or a TSan report in the sanitizer
// lane.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rapid/machine/params.hpp"
#include "rapid/num/shm_workloads.hpp"
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

struct RunOutcome {
  RunReport report;
  double residual = -1.0;
  std::string error;
};

/// Runs the shared workload once on this thread, tagging logs with run_id.
RunOutcome run_once(const num::ShmWorkload& wl, const RunConfig& config,
                    std::int64_t run_id) {
  RunOutcome out;
  try {
    ThreadedOptions options;
    options.run_id = run_id;
    ThreadedExecutor exec(wl.plan, config, wl.make_init(), wl.make_body(),
                          options);
    out.report = exec.run();
    if (out.report.executable) out.residual = wl.residual(exec);
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

void run_concurrent(const std::string& spec, int concurrency) {
  const auto wl = num::build_shm_workload(spec);
  const RunConfig config = config_for(*wl);

  // Solo baseline: the counters every concurrent run must reproduce.
  const RunOutcome solo = run_once(*wl, config, -1);
  ASSERT_TRUE(solo.error.empty()) << solo.error;
  ASSERT_TRUE(solo.report.executable) << solo.report.failure;

  std::vector<RunOutcome> outcomes(static_cast<std::size_t>(concurrency));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < concurrency; ++i) {
      threads.emplace_back([&wl, &config, &outcomes, i] {
        outcomes[static_cast<std::size_t>(i)] = run_once(*wl, config, i);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  for (int i = 0; i < concurrency; ++i) {
    const RunOutcome& out = outcomes[static_cast<std::size_t>(i)];
    ASSERT_TRUE(out.error.empty()) << spec << " run " << i << ": "
                                   << out.error;
    ASSERT_TRUE(out.report.executable)
        << spec << " run " << i << ": " << out.report.failure;
    EXPECT_EQ(out.report.run_id, i);
    EXPECT_EQ(out.report.failure_kind, FailureKind::kNone)
        << spec << " run " << i;
    // Exact numerics: bit-exact zero for an integer app, the usual
    // factorization threshold otherwise.
    if (wl->app->integer_exact()) {
      EXPECT_EQ(out.residual, 0.0) << spec << " run " << i;
    } else {
      EXPECT_LT(out.residual, 1e-10) << spec << " run " << i;
    }
    // No cross-run counter bleed: every concurrent run's protocol counters
    // equal the solo run's, to the message.
    EXPECT_EQ(out.report.tasks_executed, solo.report.tasks_executed)
        << spec << " run " << i;
    EXPECT_EQ(out.report.content_messages, solo.report.content_messages)
        << spec << " run " << i;
    EXPECT_EQ(out.report.content_bytes, solo.report.content_bytes)
        << spec << " run " << i;
    EXPECT_EQ(out.report.flag_messages, solo.report.flag_messages)
        << spec << " run " << i;
    EXPECT_EQ(out.report.maps_per_proc, solo.report.maps_per_proc)
        << spec << " run " << i;
  }
}

TEST(MultiRun, FourConcurrentGridRunsStayExact) {
  run_concurrent("grid:rows=8,cols=8,procs=4", 4);
}

TEST(MultiRun, SixConcurrentCholeskyRunsShareOnePlan) {
  run_concurrent("cholesky:grid=8,block=4,procs=4", 6);
}

TEST(MultiRun, MixedWorkloadsSideBySide) {
  // Two different plans in flight at once from one host process — the
  // service's steady state, without the service in the way.
  std::thread a([] { run_concurrent("grid:rows=6,cols=10,procs=4", 2); });
  std::thread b([] { run_concurrent("lu:grid=8,block=4,procs=4", 2); });
  a.join();
  b.join();
}

}  // namespace
}  // namespace rapid::rt
