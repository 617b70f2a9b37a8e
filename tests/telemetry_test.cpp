// Telemetry-plane tests: registry instrument semantics (sharded counters,
// ratchets, atomic histograms), Prometheus exposition correctness (label
// escaping, cumulative bucket monotonicity, _sum/_count reconciliation
// against a real run's post-run metrics), snapshot torn-read freedom under
// concurrent writers, sampler write atomicity and write-failure
// degradation, exact service-counter reconciliation, and the cross-process
// shm heartbeat going stale under a SIGKILL and the run recovering.
#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "counter_app.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/telemetry.hpp"
#include "rapid/rt/faults.hpp"
#include "rapid/rt/recovery.hpp"
#include "rapid/rt/shm_health.hpp"
#include "rapid/rt/shm_transport.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/svc/service.hpp"
#include "tsan.hpp"

namespace rapid::obs {
namespace {

using rt::testing::CounterApp;

const SeriesSnapshot* find_series(const MetricsSnapshot& snap,
                                  const std::string& name) {
  for (const SeriesSnapshot& s : snap.series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::int64_t counter_value(const MetricsSnapshot& snap,
                           const std::string& name) {
  const SeriesSnapshot* s = find_series(snap, name);
  return s != nullptr ? s->int_value : -1;
}

// ---- instruments -----------------------------------------------------------

TEST(Telemetry, CounterShardsSumAndStayMonotone) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
  c.add(-5);  // negative deltas are dropped, not subtracted
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(Telemetry, CounterAdvanceToRatchetsNeverRegresses) {
  Counter c;
  c.advance_to(10);
  EXPECT_EQ(c.value(), 10);
  c.advance_to(7);  // stale total: no-op
  EXPECT_EQ(c.value(), 10);
  c.advance_to(42);
  EXPECT_EQ(c.value(), 42);
}

TEST(Telemetry, AtomicHistogramBucketsLikePostRunHistogram) {
  AtomicHistogram live;
  Histogram post;
  for (const std::int64_t v : {0LL, 1LL, 2LL, 3LL, 17LL, 1000LL, 1LL << 40}) {
    live.observe(v);
    post.add(v);
  }
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(live.bucket(i), post.bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(live.sum(), post.sum());
}

// ---- exposition ------------------------------------------------------------

TEST(Telemetry, EscapesLabelValues) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("line1\nline2"), "line1\\nline2");

  MetricsRegistry reg;
  reg.counter("rapid_test_total", "help", {{"spec", "grid:\"8x8\"\n"}})
      .add(3);
  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("rapid_test_total{spec=\"grid:\\\"8x8\\\"\\n\"} 3"),
            std::string::npos)
      << text;
}

TEST(Telemetry, PrometheusHistogramBucketsAreCumulativeAndReconcile) {
  MetricsRegistry reg;
  AtomicHistogram& h = reg.histogram("rapid_test_us", "help");
  std::int64_t expect_sum = 0;
  for (const std::int64_t v : {0LL, 1LL, 2LL, 3LL, 900LL, 1000LL}) {
    h.observe(v);
    expect_sum += v;
  }
  const MetricsSnapshot snap = reg.snapshot();
  const SeriesSnapshot* s = find_series(snap, "rapid_test_us");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hist_count(), 6);
  EXPECT_EQ(s->hist_sum, expect_sum);

  const std::string text = prometheus_text(snap);
  // HELP/TYPE exactly once for the family.
  EXPECT_EQ(text.find("# HELP rapid_test_us "),
            text.rfind("# HELP rapid_test_us "));
  EXPECT_NE(text.find("# TYPE rapid_test_us histogram"), std::string::npos);
  EXPECT_NE(text.find("rapid_test_us_bucket{le=\"+Inf\"} 6"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rapid_test_us_sum " + std::to_string(expect_sum)),
            std::string::npos);
  EXPECT_NE(text.find("rapid_test_us_count 6"), std::string::npos);

  // Cumulative bucket values never decrease in emission order.
  std::istringstream lines(text);
  std::string line;
  std::int64_t prev = -1;
  int bucket_lines = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("rapid_test_us_bucket", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    const std::int64_t v = std::stoll(line.substr(space + 1));
    EXPECT_GE(v, prev) << line;
    prev = v;
    ++bucket_lines;
  }
  EXPECT_GE(bucket_lines, 2);
}

TEST(Telemetry, HistogramMergeReconcilesWithPostRunMetrics) {
  // A real traced run's post-run task_us histogram imports into a live
  // AtomicHistogram exactly: same bucket rule, same count, same sum.
  const int procs = 4;
  CounterApp app(procs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  Trace trace(procs);
  rt::ThreadedOptions options;
  options.trace = &trace;
  rt::ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                            app.make_init(), app.make_body(), options);
  const rt::RunReport report = exec.run();
  ASSERT_TRUE(report.executable) << report.failure;
  ASSERT_TRUE(report.metrics);
  const Histogram& task_us = report.metrics->task_us;
  ASSERT_GT(task_us.count(), 0);

  MetricsRegistry reg;
  reg.histogram("rapid_task_us", "help").merge(task_us);
  const MetricsSnapshot snap = reg.snapshot();
  const SeriesSnapshot* s = find_series(snap, "rapid_task_us");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hist_count(), task_us.count());
  EXPECT_EQ(s->hist_count(), report.tasks_executed);
  EXPECT_EQ(s->hist_sum, task_us.sum());
}

TEST(Telemetry, RegistryIsIdempotentOnNameAndLabels) {
  MetricsRegistry reg;
  Counter& a = reg.counter("rapid_x_total", "help");
  Counter& b = reg.counter("rapid_x_total", "other help");
  EXPECT_EQ(&a, &b);
  Counter& rank0 = reg.counter("rapid_y_total", "h", {{"rank", "0"}});
  Counter& rank1 = reg.counter("rapid_y_total", "h", {{"rank", "1"}});
  EXPECT_NE(&rank0, &rank1);
  rank0.add(1);
  rank1.add(2);
  const MetricsSnapshot snap = reg.snapshot();
  int series = 0;
  for (const SeriesSnapshot& s : snap.series) {
    if (s.name == "rapid_y_total") ++series;
  }
  EXPECT_EQ(series, 2);
}

// ---- snapshot consistency under concurrency --------------------------------

TEST(Telemetry, SnapshotsStayMonotoneUnderConcurrentWriters) {
  MetricsRegistry reg;
  Counter& runs = reg.counter("rapid_runs_total", "help");
  AtomicHistogram& lat = reg.histogram("rapid_lat_us", "help");
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&runs, &lat, &stop, w] {
      std::int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        runs.add(1);
        lat.observe((i++ % 4096) + w);
      }
    });
  }

  // Under TSan this is the data-race probe for the whole snapshot path;
  // functionally, every snapshot must be internally monotone and the
  // sequence of snapshots monotone per series.
  std::int64_t prev_runs = 0;
  std::int64_t prev_lat_count = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const MetricsSnapshot snap = reg.snapshot();
    const std::int64_t r = counter_value(snap, "rapid_runs_total");
    const SeriesSnapshot* s = find_series(snap, "rapid_lat_us");
    ASSERT_NE(s, nullptr);
    const std::int64_t n = s->hist_count();
    EXPECT_GE(r, prev_runs);
    EXPECT_GE(n, prev_lat_count);
    prev_runs = r;
    prev_lat_count = n;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();

  const MetricsSnapshot final_snap = reg.snapshot();
  EXPECT_EQ(counter_value(final_snap, "rapid_runs_total"), runs.value());
  EXPECT_EQ(find_series(final_snap, "rapid_lat_us")->hist_sum, lat.sum());
}

// ---- sampler ---------------------------------------------------------------

TEST(Telemetry, SamplerWritesParseableAtomicSnapshots) {
  const std::string path = testing::TempDir() + "rapid_telemetry_test.prom";
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());

  MetricsRegistry reg;
  Counter& ticks_seen = reg.counter("rapid_probe_runs_total", "help");
  TelemetrySamplerOptions opts;
  opts.path = path;
  opts.interval_ms = 10;
  TelemetrySampler sampler(reg, opts);
  sampler.add_probe(
      [&ticks_seen](MetricsRegistry&) { ticks_seen.add(1); });
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  sampler.stop();

  EXPECT_GE(sampler.ticks(), 2);
  EXPECT_FALSE(sampler.disabled());

  std::ifstream prom(path);
  ASSERT_TRUE(prom.good()) << path;
  std::stringstream text;
  text << prom.rdbuf();
  EXPECT_NE(text.str().find("# TYPE rapid_probe_runs_total counter"),
            std::string::npos);
  // The final stop() tick makes the file reflect the end state exactly.
  EXPECT_NE(text.str().find("rapid_probe_runs_total " +
                            std::to_string(ticks_seen.value())),
            std::string::npos)
      << text.str();

  std::ifstream json(path + ".json");
  ASSERT_TRUE(json.good());
  std::stringstream jtext;
  jtext << json.rdbuf();
  EXPECT_NE(jtext.str().find("\"rapid.telemetry.v1\""), std::string::npos);
  EXPECT_NE(jtext.str().find("\"wall_ns\""), std::string::npos);

  // No tmp file left behind by the atomic-rename protocol.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

TEST(Telemetry, WriteFailureDisablesSamplerWithoutThrowing) {
  MetricsRegistry reg;
  reg.counter("rapid_x_total", "help").add(1);
  TelemetrySamplerOptions opts;
  opts.path = "/nonexistent_rapid_dir/metrics.prom";
  TelemetrySampler sampler(reg, opts);
  EXPECT_FALSE(sampler.tick());
  EXPECT_TRUE(sampler.disabled());
  EXPECT_EQ(sampler.ticks(), 0);
  // Further ticks stay no-ops; start/stop never throws either.
  EXPECT_FALSE(sampler.tick());
  sampler.start();
  sampler.stop();
  EXPECT_TRUE(sampler.disabled());
}

// ---- service reconciliation ------------------------------------------------

TEST(ServiceTelemetry, CountersReconcileExactlyWithServiceReport) {
  svc::ServiceOptions sopts;
  sopts.workers = 2;
  MetricsRegistry reg;
  svc::RuntimeService service(sopts);
  service.bind_telemetry(reg);

  std::vector<std::int64_t> ids;
  for (int i = 0; i < 3; ++i) {
    svc::RunRequest req;
    req.spec = "grid:rows=8,cols=8,procs=4";
    req.config.capacity_per_proc = 1 << 20;
    ids.push_back(service.submit(std::move(req)));
  }
  {
    // Demand beyond the whole budget: structured rejection.
    svc::RunRequest req;
    req.spec = "grid:rows=8,cols=8,procs=4";
    req.config.capacity_per_proc = sopts.budget_bytes;
    ids.push_back(service.submit(std::move(req)));
  }
  for (const std::int64_t id : ids) service.wait(id);
  service.sample_telemetry();

  const svc::ServiceReport report = service.report();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(counter_value(snap, "rapid_runs_submitted_total"),
            report.submitted);
  EXPECT_EQ(counter_value(snap, "rapid_runs_completed_total"),
            report.completed);
  EXPECT_EQ(counter_value(snap, "rapid_runs_failed_total"), report.failed);
  EXPECT_EQ(counter_value(snap, "rapid_runs_rejected_total"),
            report.rejected);
  EXPECT_EQ(counter_value(snap, "rapid_runs_shed_total"), report.shed);
  EXPECT_EQ(counter_value(snap, "rapid_runs_expired_total"),
            report.expired);
  EXPECT_EQ(counter_value(snap, "rapid_plan_cache_hits_total"),
            report.cache_hits);
  EXPECT_EQ(counter_value(snap, "rapid_plan_cache_misses_total"),
            report.cache_misses);

  // The ISSUE's reconciliation identity: every submitted run is accounted
  // for by exactly one terminal counter once the queue drains.
  EXPECT_EQ(counter_value(snap, "rapid_runs_submitted_total"),
            counter_value(snap, "rapid_runs_completed_total") +
                counter_value(snap, "rapid_runs_failed_total") +
                counter_value(snap, "rapid_runs_rejected_total") +
                counter_value(snap, "rapid_runs_shed_total") +
                counter_value(snap, "rapid_runs_expired_total"));

  // Latency histograms cover exactly the dispatched terminals (the
  // rejected run never dispatched).
  const SeriesSnapshot* lat = find_series(snap, "rapid_run_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist_count(), report.completed + report.failed);
  const SeriesSnapshot* task_us = find_series(snap, "rapid_task_us");
  ASSERT_NE(task_us, nullptr);

  // Drained service: instantaneous gauges settle to zero.
  const SeriesSnapshot* queue = find_series(snap, "rapid_queue_depth");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->value, 0.0);
  const SeriesSnapshot* in_flight = find_series(snap, "rapid_runs_in_flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->value, 0.0);
  const SeriesSnapshot* reserved = find_series(snap, "rapid_reserved_bytes");
  ASSERT_NE(reserved, nullptr);
  EXPECT_EQ(reserved->value, 0.0);
  const SeriesSnapshot* budget = find_series(snap, "rapid_budget_bytes");
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->value, static_cast<double>(sopts.budget_bytes));
}

// ---- cross-process shm health ----------------------------------------------

double rank_gauge(const MetricsSnapshot& snap, const std::string& name,
                  const std::string& rank) {
  for (const SeriesSnapshot& s : snap.series) {
    if (s.name != name) continue;
    for (const Label& l : s.labels) {
      if (l.first == "rank" && l.second == rank) return s.value;
    }
  }
  return -2.0;  // series absent
}

/// The acceptance path: a worker that stops heartbeating mid-run shows up
/// as a stale heartbeat gauge (age past its lease, alive -> 0), the
/// SIGKILL + respawn cycle brings a fresh-beating rank back, and torn-down
/// sessions drop out of the sampler entirely.
TEST(ShmHealth, HeartbeatGoesStaleThenRecoversAcrossKillAndRespawn) {
  RAPID_SKIP_UNDER_TSAN();
  rt::ShmTransport::Dims dims;
  dims.num_procs = 2;
  dims.num_data = 2;
  dims.num_tasks = 2;
  dims.heap_bytes = 64;
  constexpr double kLeaseTimeoutSeconds = 0.2;

  MetricsRegistry reg;
  {
    // Session 1: rank 0 beats once and wedges (alive but silent) — its
    // lease ages past the timeout and the sampler must flag it stale.
    auto session = rt::ShmSession::create(dims, kLeaseTimeoutSeconds);
    rt::ShmTransport& st = session->transport();
    session->spawn_fork([&st](graph::ProcId q) -> int {
      st.beat(q, /*state=*/1, /*pos=*/0);
      if (q == 0) {
        for (;;) ::pause();
      }
      return rt::kShmWorkerClean;
    });
    bool stale = false;
    Stopwatch sw;
    while (!stale && sw.seconds() < 10.0) {
      rt::sample_shm_health(reg);
      const MetricsSnapshot snap = reg.snapshot();
      const SeriesSnapshot* sessions = find_series(snap, "rapid_shm_sessions");
      ASSERT_NE(sessions, nullptr);
      EXPECT_EQ(sessions->value, 1.0);
      stale = rank_gauge(snap, "rapid_rank_heartbeat_age_seconds", "0") >
                  0.5 &&
              rank_gauge(snap, "rapid_rank_alive", "0") == 0.0;
      ::usleep(10'000);
    }
    EXPECT_TRUE(stale)
        << "wedged rank 0 never showed a stale heartbeat gauge";
    session->kill_all(SIGKILL);
    EXPECT_TRUE(session->wait_all(5.0));
  }
  EXPECT_EQ(rt::shm_health_active_sessions(), 0);

  {
    // Session 2 (the respawn): both ranks beat continuously — the same
    // rank index must read fresh and alive again.
    auto session = rt::ShmSession::create(dims, kLeaseTimeoutSeconds);
    rt::ShmTransport& st = session->transport();
    session->spawn_fork([&st](graph::ProcId q) -> int {
      for (int i = 0; i < 400; ++i) {
        st.beat(q, /*state=*/1, /*pos=*/0);
        ::usleep(5'000);
      }
      return rt::kShmWorkerClean;
    });
    bool fresh = false;
    Stopwatch sw;
    while (!fresh && sw.seconds() < 10.0) {
      rt::sample_shm_health(reg);
      const MetricsSnapshot snap = reg.snapshot();
      const double age =
          rank_gauge(snap, "rapid_rank_heartbeat_age_seconds", "0");
      fresh = age >= 0.0 && age < kLeaseTimeoutSeconds &&
              rank_gauge(snap, "rapid_rank_alive", "0") == 1.0;
      ::usleep(10'000);
    }
    EXPECT_TRUE(fresh)
        << "respawned rank 0 never showed a fresh heartbeat gauge";
    session->kill_all(SIGKILL);
    EXPECT_TRUE(session->wait_all(5.0));
  }

  // All sessions unregistered on teardown; a final probe reports none.
  EXPECT_EQ(rt::shm_health_active_sessions(), 0);
  rt::sample_shm_health(reg);
  const MetricsSnapshot final_snap = reg.snapshot();
  const SeriesSnapshot* sessions =
      find_series(final_snap, "rapid_shm_sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->value, 0.0);
}

/// Executor level: a SIGKILLed rank fail-stops the attempt, the restart
/// runs clean, and the live nack/resend mirrors never make the
/// cross-session counters regress. The session registered by the winning
/// attempt's executor stays sampleable until the executor is released.
TEST(ShmHealth, RecoveredRunReleasesItsSessionWithTheExecutor) {
  RAPID_SKIP_UNDER_TSAN();
  constexpr int kProcs = 4;
  CounterApp app(kProcs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  const rt::RunConfig config = app.config(liveness.min_mem());

  rt::ThreadedOptions options;
  options.transport = rt::TransportKind::kShm;
  options.faults = rt::FaultPlan::kill_proc_at(1, rt::FaultPlan::kKillExe, 1);
  options.faults.induced_fault_runs = 1;
  rt::RunRecoveryOptions ropts;
  ropts.max_run_attempts = 2;

  MetricsRegistry reg;
  rt::RecoveryRun rec = rt::run_with_recovery(
      app.plan, config, app.make_init(), app.make_body(), options, ropts);
  ASSERT_TRUE(rec.report.executable) << rec.report.failure;
  EXPECT_EQ(rec.attempts, 2);

  // The winner's executor keeps its session alive for read_object();
  // sampling sees it, and the per-rank counters only ever grow.
  EXPECT_EQ(rt::shm_health_active_sessions(), 1);
  rt::sample_shm_health(reg);
  const MetricsSnapshot during = reg.snapshot();
  const std::int64_t nacks_before =
      counter_value(during, "rapid_rank_nacks_total");
  rt::sample_shm_health(reg);
  EXPECT_GE(counter_value(reg.snapshot(), "rapid_rank_nacks_total"),
            nacks_before);

  rec.executor.reset();
  EXPECT_EQ(rt::shm_health_active_sessions(), 0);
}

}  // namespace
}  // namespace rapid::obs
