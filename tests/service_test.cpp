// RuntimeService behaviors, one at a time: exact mixed-run completion under
// the budget invariant, plan-cache reuse, structured rejection (budget
// shortfall / Def. 6 infeasibility / bad spec), bounded-queue shedding by
// earliest deadline, queued and mid-run deadline expiry, priority backfill,
// and per-run fault containment between co-resident runs. The chaos soak
// (service_chaos_test.cpp) crosses all of these at once; this file pins each
// contract in isolation so a regression names itself.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "rapid/obs/telemetry.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/faults.hpp"
#include "rapid/rt/run_context.hpp"
#include "rapid/rt/shm_transport.hpp"
#include "rapid/svc/service.hpp"

namespace rapid::svc {
namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Polls until the service's single worker has dequeued a run: the
/// in-flight gauge of a service bound to `reg` reads 1. False after ~10 s.
bool wait_until_in_flight(RuntimeService& service,
                          obs::MetricsRegistry& reg) {
  const obs::Gauge& in_flight =
      reg.gauge("rapid_runs_in_flight", "Runs currently executing");
  for (int polls = 0; polls < 10'000; ++polls) {
    service.sample_telemetry();
    if (in_flight.value() == 1.0) return true;
    sleep_ms(1);
  }
  return false;
}

RunRequest grid_request(const std::string& spec) {
  RunRequest req;
  req.spec = spec;
  req.config.capacity_per_proc = 1 << 20;
  return req;
}

TEST(Service, MixedRunsCompleteExactlyWithinBudget) {
  RuntimeService service;
  std::vector<std::int64_t> ids;
  ids.push_back(service.submit(grid_request("grid:rows=8,cols=8,procs=4")));
  ids.push_back(
      service.submit(grid_request("cholesky:grid=8,block=4,procs=4")));
  ids.push_back(service.submit(grid_request("lu:grid=8,block=4,procs=4")));
  ids.push_back(
      service.submit(grid_request("trisolve:grid=8,block=4,procs=4")));
  ids.push_back(service.submit(grid_request("nbody:procs=4,sched=mpo")));
  for (const std::int64_t id : ids) {
    const RunRecord& r = service.wait(id);
    ASSERT_EQ(r.state, RunState::kCompleted) << r.spec << ": " << r.reason;
    EXPECT_TRUE(r.numerics_ok) << r.spec << " residual " << r.residual;
    ASSERT_TRUE(r.has_outcome);
    EXPECT_TRUE(r.outcome.report.executable);
  }
  // The grid app's result is integer: anything but a bit-exact zero is a
  // protocol bug, not roundoff.
  EXPECT_EQ(service.wait(ids[0]).residual, 0.0);

  const ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, 5);
  EXPECT_EQ(report.completed, 5);
  EXPECT_EQ(report.failed + report.rejected + report.shed + report.expired,
            0);
  // The admission invariant: reservations never exceeded the budget, and
  // something was actually reserved.
  EXPECT_GT(report.peak_reserved_bytes, 0);
  EXPECT_LE(report.peak_reserved_bytes, report.budget_bytes);
}

TEST(Service, PlanCacheReusesRepeatedSpecs) {
  RuntimeService service;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(service.submit(grid_request("grid:rows=8,cols=8,procs=4")));
  }
  for (const std::int64_t id : ids) {
    EXPECT_EQ(service.wait(id).state, RunState::kCompleted);
  }
  const ServiceReport report = service.report();
  EXPECT_EQ(report.cache_misses, 1);
  EXPECT_EQ(report.cache_hits, 3);
}

TEST(Service, RejectsOverBudgetWithExactShortfall) {
  ServiceOptions opts;
  opts.budget_bytes = 256;  // well under any real run's demand
  RuntimeService service(opts);
  const std::int64_t id =
      service.submit(grid_request("grid:rows=8,cols=8,procs=4"));
  const RunRecord& r = service.wait(id);
  ASSERT_EQ(r.state, RunState::kRejected);
  EXPECT_EQ(r.admission.verdict, AdmissionVerdict::kRejected);
  EXPECT_GT(r.admission.need_bytes, opts.budget_bytes);
  EXPECT_EQ(r.admission.shortfall_bytes,
            r.admission.need_bytes - opts.budget_bytes);
  EXPECT_FALSE(r.reason.empty());
  EXPECT_EQ(service.report().rejected, 1);
}

TEST(Service, RejectsCapacityInfeasiblePlanStructured) {
  RuntimeService service;
  RunRequest req = grid_request("grid:rows=8,cols=8,procs=4");
  req.config.capacity_per_proc = 16;  // below any task's working set
  const std::int64_t id = service.submit(std::move(req));
  const RunRecord& r = service.wait(id);
  ASSERT_EQ(r.state, RunState::kRejected);
  EXPECT_EQ(r.admission.verdict, AdmissionVerdict::kRejected);
  // The Def. 6 replay failure names the processor that cannot fit.
  EXPECT_NE(r.reason.find("processor"), std::string::npos) << r.reason;
}

TEST(Service, RejectsUnbuildableSpecStructured) {
  // An unknown app, and malformed numbers (not a number, trailing
  // characters, out of range, a repeated key): each is a rejected run whose
  // reason names the culprit — never an exception out of submit(), and
  // never a run under a different plan.
  RuntimeService service;
  const struct {
    const char* spec;
    const char* named;
  } cases[] = {{"nosuch:thing=1", "nosuch"},
               {"grid:rows=abc,cols=8,procs=2", "rows=abc"},
               {"grid:rows=8x,cols=8,procs=2", "rows=8x"},
               {"grid:rows=99999999999,cols=8,procs=2", "rows=99999999999"},
               {"grid:rows=8,cols=8,rows=9,procs=2", "\"rows\" given twice"}};
  for (const auto& c : cases) {
    const RunRecord& r = service.wait(service.submit(grid_request(c.spec)));
    ASSERT_EQ(r.state, RunState::kRejected) << c.spec;
    EXPECT_EQ(r.admission.verdict, AdmissionVerdict::kRejected);
    EXPECT_NE(r.reason.find(c.named), std::string::npos) << r.reason;
  }
  EXPECT_EQ(service.report().completed, 0);
}

TEST(Service, BoundedQueueShedsEarliestDeadline) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_limit = 2;
  RuntimeService service(opts);
  obs::MetricsRegistry reg;
  service.bind_telemetry(reg);

  // Occupy the single worker long enough for the queue games below.
  const std::int64_t a =
      service.submit(grid_request("grid:rows=8,cols=8,procs=4,delay=8000"));
  // A leaves the queue before the queue fills.
  ASSERT_TRUE(wait_until_in_flight(service, reg));

  RunRequest b = grid_request("grid:rows=8,cols=8,procs=4");
  b.deadline_us = 100'000'000;
  RunRequest c = grid_request("grid:rows=6,cols=10,procs=4");
  c.deadline_us = 90'000'000;
  RunRequest d = grid_request("grid:rows=8,cols=8,procs=4");
  d.deadline_us = 1'000'000;  // earliest deadline in the house
  RunRequest e = grid_request("grid:rows=8,cols=8,procs=4");
  e.deadline_us = 200'000'000;
  const std::int64_t ib = service.submit(std::move(b));
  const std::int64_t ic = service.submit(std::move(c));
  // Queue is now full (limit 2). The newcomer has the earliest deadline of
  // anyone waiting, so the newcomer itself is shed.
  const std::int64_t id = service.submit(std::move(d));
  // This newcomer's deadline is the latest, so the shed victim is the
  // earliest-deadline queued run (C at 90s).
  const std::int64_t ie = service.submit(std::move(e));

  EXPECT_EQ(service.wait(id).state, RunState::kShed);
  EXPECT_EQ(service.wait(id).admission.verdict, AdmissionVerdict::kShed);
  EXPECT_FALSE(service.wait(id).reason.empty());
  EXPECT_EQ(service.wait(ic).state, RunState::kShed);
  EXPECT_EQ(service.wait(a).state, RunState::kCompleted);
  EXPECT_EQ(service.wait(ib).state, RunState::kCompleted);
  EXPECT_EQ(service.wait(ie).state, RunState::kCompleted);

  const ServiceReport report = service.report();
  EXPECT_EQ(report.shed, 2);
  EXPECT_LE(report.peak_queue_depth, opts.queue_limit);
}

TEST(Service, QueuedRunExpiresUndispatched) {
  ServiceOptions opts;
  opts.workers = 1;
  RuntimeService service(opts);
  obs::MetricsRegistry reg;
  service.bind_telemetry(reg);
  const std::int64_t a =
      service.submit(grid_request("grid:rows=8,cols=8,procs=4,delay=8000"));
  // A holds the worker before B arrives.
  ASSERT_TRUE(wait_until_in_flight(service, reg));
  RunRequest b = grid_request("grid:rows=8,cols=8,procs=4");
  b.deadline_us = 30'000;  // lapses long before A finishes
  const std::int64_t ib = service.submit(std::move(b));

  const RunRecord& rb = service.wait(ib);
  ASSERT_EQ(rb.state, RunState::kExpired);
  EXPECT_FALSE(rb.has_outcome);  // never dispatched, so no partial report
  EXPECT_NE(rb.reason.find("lapsed while queued"), std::string::npos)
      << rb.reason;
  EXPECT_EQ(service.wait(a).state, RunState::kCompleted);
  EXPECT_EQ(service.report().expired, 1);
}

TEST(Service, MidRunDeadlineCancelsCooperatively) {
  RuntimeService service;
  RunRequest req = grid_request("grid:rows=8,cols=8,procs=4,delay=20000");
  req.deadline_us = 60'000;  // far less than the run's ~10ms/task pace
  const std::int64_t id = service.submit(std::move(req));
  const RunRecord& r = service.wait(id);
  ASSERT_EQ(r.state, RunState::kExpired);
  // Cancelled in flight: the partial report survives the reclaimed arena.
  ASSERT_TRUE(r.has_outcome);
  EXPECT_TRUE(r.outcome.failed);
  EXPECT_EQ(r.outcome.failure_kind, rt::FailureKind::kCancelled);
  EXPECT_EQ(r.outcome.report.run_id, r.run_id);
  // 8x8 grid + doubling tasks: the 60ms budget cannot cover them all at
  // ~10ms a task, so the report is genuinely partial.
  EXPECT_LT(r.outcome.report.tasks_executed, 8 * 8);
}

TEST(Service, PriorityBackfillsAheadOfFifo) {
  ServiceOptions opts;
  opts.workers = 1;
  RuntimeService service(opts);
  obs::MetricsRegistry reg;
  service.bind_telemetry(reg);
  const std::int64_t a =
      service.submit(grid_request("grid:rows=8,cols=8,procs=4,delay=8000"));
  // low and high both queue behind A.
  ASSERT_TRUE(wait_until_in_flight(service, reg));
  RunRequest low = grid_request("grid:rows=8,cols=8,procs=4");
  low.priority = 0;
  RunRequest high = grid_request("grid:rows=6,cols=10,procs=4");
  high.priority = 5;
  const std::int64_t il = service.submit(std::move(low));
  const std::int64_t ih = service.submit(std::move(high));

  EXPECT_EQ(service.wait(a).state, RunState::kCompleted);
  const RunRecord& rl = service.wait(il);
  const RunRecord& rh = service.wait(ih);
  ASSERT_EQ(rl.state, RunState::kCompleted);
  ASSERT_EQ(rh.state, RunState::kCompleted);
  // High priority was submitted later but dispatched first, so it waited
  // strictly less than the FIFO-earlier low-priority run.
  EXPECT_LT(rh.wait_us, rl.wait_us);
}

TEST(Service, FaultInOneRunNeverPausesCoResidents) {
  RuntimeService service;  // two workers: both runs in flight together
  RunRequest faulty = grid_request("grid:rows=8,cols=8,procs=4,delay=1000");
  faulty.options.faults.throw_in_task = 5;
  faulty.options.faults.induced_fault_runs = 1;  // restart runs clean
  faulty.recovery.max_run_attempts = 2;
  RunRequest clean = grid_request("cholesky:grid=8,block=4,procs=4");
  const std::int64_t fi = service.submit(std::move(faulty));
  const std::int64_t ci = service.submit(std::move(clean));

  const RunRecord& rf = service.wait(fi);
  const RunRecord& rc = service.wait(ci);
  ASSERT_EQ(rf.state, RunState::kCompleted) << rf.reason;
  ASSERT_EQ(rc.state, RunState::kCompleted) << rc.reason;
  // The injected fault cost the faulty run a restart; the co-resident run
  // finished on its first attempt with clean numerics.
  EXPECT_EQ(rf.outcome.attempts, 2);
  EXPECT_EQ(rc.outcome.attempts, 1);
  EXPECT_TRUE(rf.numerics_ok);
  EXPECT_TRUE(rc.numerics_ok);
  const ServiceReport report = service.report();
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.failed, 0);
}

TEST(Service, WorkerContextKeepsOneMappingOfTheLargestLayout) {
  // One worker runs a large spec, then small ones. Between runs its context
  // retains exactly one mapping, sized to the largest layout it served, and
  // a run whose layout fits keeps that mapping where it is.
  ServiceOptions options;
  options.workers = 1;
  RuntimeService service(options);
  const auto layout_bytes = [](const RunRequest& req) {
    const auto wl = num::build_shm_workload(req.spec);
    return rt::ShmTransport::segment_bytes(
        rt::ShmTransport::dims_for(wl->plan, req.config));
  };
  const RunRequest large = grid_request("lu:grid=8,block=4,procs=4");
  const RunRequest small = grid_request("grid:rows=8,cols=8,procs=2");
  ASSERT_LT(layout_bytes(small), layout_bytes(large));

  const rt::RunContext& ctx = service.worker_context(0);
  ASSERT_EQ(service.wait(service.submit(large)).state, RunState::kCompleted);
  EXPECT_EQ(ctx.mapped_bytes(), layout_bytes(large));
  const std::byte* base = ctx.mapping_base();
  ASSERT_NE(base, nullptr);
  for (int i = 0; i < 3; ++i) {
    const RunRecord& r = service.wait(service.submit(small));
    ASSERT_EQ(r.state, RunState::kCompleted) << r.reason;
    EXPECT_EQ(r.residual, 0.0);
    EXPECT_EQ(ctx.mapped_bytes(), layout_bytes(large));
    EXPECT_EQ(ctx.mapping_base(), base);
  }
  EXPECT_EQ(ctx.crew_size(), 4);
}

}  // namespace
}  // namespace rapid::svc
