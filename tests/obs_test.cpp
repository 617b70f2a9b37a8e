// Observability plane tests: ring-buffer tracer semantics, metrics
// reduction, occupancy reconstruction (exact against the MAP engine's
// peak), Chrome-trace export structure, and the disabled-tracer guarantee
// (no events, identical protocol behavior).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "counter_app.hpp"
#include "rapid/obs/chrome_trace.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/timeline.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/str.hpp"

namespace rapid::obs {
namespace {

using rt::testing::CounterApp;
using rt::testing::GridApp;

TraceConfig small_ring(std::int32_t events) {
  TraceConfig c;
  c.events_per_proc = events;
  return c;
}

TEST(Trace, RecordsInOrderWithPayload) {
  Trace trace(2, small_ring(64));
  trace.record_at(0, 10, EventKind::kTaskBegin, 7);
  trace.record_at(0, 20, EventKind::kTaskEnd, 7);
  trace.record_at(1, 15, EventKind::kPut, 3, 2, 1, 4096);
  const auto p0 = trace.events(0);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_EQ(p0[0].t_ns, 10);
  EXPECT_EQ(p0[0].kind, EventKind::kTaskBegin);
  EXPECT_EQ(p0[0].a, 7);
  EXPECT_EQ(p0[1].kind, EventKind::kTaskEnd);
  const auto p1 = trace.events(1);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0].bytes, 4096);
  EXPECT_EQ(p1[0].c, 1);
  EXPECT_EQ(trace.total_events(), 3);
  EXPECT_EQ(trace.total_dropped(), 0);
}

TEST(Trace, RingWrapsKeepingNewestEvents) {
  Trace trace(1, small_ring(64));
  for (int i = 0; i < 100; ++i) {
    trace.record_at(0, i, EventKind::kHeapSample, 0, 0, 0, i);
  }
  EXPECT_EQ(trace.recorded(0), 100);
  EXPECT_EQ(trace.dropped(0), 36);
  const auto events = trace.events(0);
  ASSERT_EQ(events.size(), 64u);
  EXPECT_EQ(events.front().t_ns, 36);  // oldest survivor
  EXPECT_EQ(events.back().t_ns, 99);
}

TEST(Trace, StampsMonotonicallyWithinAProcessor) {
  Trace trace(1);
  for (int i = 0; i < 200; ++i) trace.record(0, EventKind::kHeapSample);
  const auto events = trace.events(0);
  ASSERT_EQ(events.size(), 200u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_GE(events[i].t_ns, events[i - 1].t_ns);
  }
  EXPECT_GE(events.front().t_ns, 0);
}

TEST(Histogram, TracksCountSumBoundsAndPercentiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
  for (const std::int64_t v : {0LL, 1LL, 2LL, 3LL, 1000LL}) h.add(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 1006);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);
  EXPECT_LE(h.percentile(0.5), 4);  // bucket upper bound containing 2
  EXPECT_EQ(h.percentile(1.0), 1000);  // clamped to observed max
}

/// End-to-end traced run on the Figure-2 counter app: every processor's
/// stream must show the full five-state protocol cycle, and per-event
/// counts must reconcile with the executor's own counters.
TEST(ObsThreaded, TracedRunCarriesAllFiveStatesAndReconciles) {
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

  std::int64_t task_begins = 0;
  std::int64_t publishes = 0;
  std::int64_t flag_sends = 0;
  for (int q = 0; q < procs; ++q) {
    std::set<int> states;
    std::int64_t maps_begun = 0;
    for (const TraceEvent& e : trace.events(q)) {
      switch (e.kind) {
        case EventKind::kStateEnter:
          states.insert(e.a);
          break;
        case EventKind::kTaskBegin:
          ++task_begins;
          break;
        case EventKind::kPutPublish:
        case EventKind::kResend:
          ++publishes;
          break;
        case EventKind::kFlagSend:
          ++flag_sends;
          break;
        case EventKind::kMapBegin:
          ++maps_begun;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(states.size(),
              static_cast<std::size_t>(ProtoState::kCount))
        << "proc " << q << " missing protocol states";
    EXPECT_EQ(maps_begun, report.maps_per_proc[static_cast<std::size_t>(q)]);
  }
  EXPECT_EQ(task_begins, report.tasks_executed);
  EXPECT_EQ(publishes, report.content_messages);
  EXPECT_EQ(flag_sends, report.flag_messages);
  EXPECT_EQ(trace.total_dropped(), 0);
}

/// The reconstructed occupancy high-water mark must equal the MAP engine's
/// reported peak bit-for-bit — including peaks reached by tentative
/// allocations that perform_map rolled back (covered by kHeapPeak).
TEST(ObsThreaded, OccupancyHighWaterMatchesMapEngineExactly) {
  const int procs = 4;
  GridApp app(6, 6, procs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  Trace trace(procs);
  rt::ThreadedOptions options;
  options.trace = &trace;
  rt::RunConfig config;
  config.capacity_per_proc = liveness.min_mem();
  config.active_memory = true;
  config.params = machine::MachineParams::cray_t3d(procs);
  rt::ThreadedExecutor exec(app.plan, config, app.make_init(),
                            app.make_body(), options);
  const rt::RunReport report = exec.run();
  ASSERT_TRUE(report.executable) << report.failure;
  app.check_results(exec);

  const OccupancyProfile occ = build_occupancy(trace);
  ASSERT_EQ(occ.high_water.size(), static_cast<std::size_t>(procs));
  for (int q = 0; q < procs; ++q) {
    EXPECT_EQ(occ.high_water[static_cast<std::size_t>(q)],
              report.peak_bytes_per_proc[static_cast<std::size_t>(q)])
        << "proc " << q;
  }
  // Samples are time-ordered and never exceed the high-water mark.
  for (int q = 0; q < procs; ++q) {
    const auto& series = occ.per_proc[static_cast<std::size_t>(q)];
    ASSERT_FALSE(series.empty());
    for (std::size_t i = 0; i < series.size(); ++i) {
      EXPECT_LE(series[i].bytes, occ.high_water[static_cast<std::size_t>(q)]);
      if (i > 0) {
        EXPECT_GE(series[i].t_ns, series[i - 1].t_ns);
      }
    }
  }
  const std::string csv = occupancy_csv(occ);
  EXPECT_EQ(csv.rfind("proc,t_ns,bytes\n", 0), 0u);
}

/// Tracing observes the protocol without changing it: a traced run does
/// exactly the work of an untraced one (deterministic counters only —
/// suspended_sends depends on thread timing), and only it carries metrics.
TEST(ObsThreaded, TracedRunKeepsTheUntracedCounters) {
  const int procs = 4;
  CounterApp app(procs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);

  rt::ThreadedExecutor plain(app.plan, app.config(liveness.min_mem()),
                             app.make_init(), app.make_body());
  const rt::RunReport base = plain.run();
  ASSERT_TRUE(base.executable);
  EXPECT_FALSE(base.metrics);  // no metrics block without a tracer

  Trace trace(procs);
  rt::ThreadedOptions options;
  options.trace = &trace;
  rt::ThreadedExecutor traced(app.plan, app.config(liveness.min_mem()),
                              app.make_init(), app.make_body(), options);
  const rt::RunReport report = traced.run();
  ASSERT_TRUE(report.executable);

  EXPECT_GT(trace.total_events(), 0);
  EXPECT_TRUE(report.metrics);
  EXPECT_EQ(report.tasks_executed, base.tasks_executed);
  EXPECT_EQ(report.content_messages, base.content_messages);
  EXPECT_EQ(report.content_bytes, base.content_bytes);
  EXPECT_EQ(report.flag_messages, base.flag_messages);
  EXPECT_EQ(report.addr_packages, base.addr_packages);
  EXPECT_EQ(report.maps_per_proc, base.maps_per_proc);
  EXPECT_EQ(report.peak_bytes_per_proc, base.peak_bytes_per_proc);
}

TEST(ObsThreaded, MetricsSummaryReconcilesWithRun) {
  const int procs = 4;
  CounterApp app(procs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  Trace trace(procs);
  rt::ThreadedOptions options;
  options.trace = &trace;
  rt::ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                            app.make_init(), app.make_body(), options);
  const rt::RunReport report = exec.run();
  ASSERT_TRUE(report.executable);

  ASSERT_TRUE(report.metrics);
  const MetricsSummary& m = *report.metrics;
  EXPECT_EQ(m.task_us.count(), report.tasks_executed);
  EXPECT_EQ(m.events, trace.total_events());
  EXPECT_EQ(m.heap_high_water.size(), static_cast<std::size_t>(procs));
  for (int q = 0; q < procs; ++q) {
    EXPECT_EQ(m.heap_high_water[static_cast<std::size_t>(q)],
              report.peak_bytes_per_proc[static_cast<std::size_t>(q)]);
  }
  double residency = 0.0;
  for (const double r : m.state_residency_us) {
    EXPECT_GE(r, 0.0);
    residency += r;
  }
  EXPECT_GT(residency, 0.0);

  // The metrics block rides into the run report's JSON (v2 added
  // "metrics", v3 "put_batches", v4 "transport"/"proc_failure", v5
  // "run_id"/"attempt_deadline_us").
  const std::string json = report.to_json().dump();
  EXPECT_NE(json.find("\"schema_version\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"put_batches\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"state_residency_us\""), std::string::npos);
}

TEST(ObsThreaded, ChromeTraceExportIsStructurallySound) {
  const int procs = 2;
  CounterApp app(procs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  Trace trace(procs);
  rt::ThreadedOptions options;
  options.trace = &trace;
  rt::ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                            app.make_init(), app.make_body(), options);
  ASSERT_TRUE(exec.run().executable);

  TraceLabels labels;
  for (graph::TaskId t = 0; t < app.graph.num_tasks(); ++t) {
    labels.tasks.push_back(app.graph.task(t).name);
  }
  for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
    labels.objects.push_back(app.graph.data(d).name);
  }
  const std::string json = chrome_trace(trace, labels).dump();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // All five protocol states appear as named spans.
  for (const char* state : {"REC", "EXE", "SND", "MAP", "END"}) {
    EXPECT_NE(json.find(cat("\"name\": \"", state, "\"")),
              std::string::npos)
        << state;
  }
  // Task spans use the app's labels, flows tie puts to consumption.
  EXPECT_NE(json.find("\"dataflow\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Unlabeled export falls back to generated names without throwing.
  const std::string bare = chrome_trace(trace).dump();
  EXPECT_NE(bare.find("obj"), std::string::npos);
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// PR 7's put batcher publishes several objects back-to-back inside one
/// coalesced RMA put; each published object must keep its own flow arrow —
/// merging them (or letting a later publication overwrite an earlier one
/// under the same key) loses dataflow edges in the viewer.
TEST(ChromeTraceFlows, BatchedPutsKeepOneArrowPerObject) {
  Trace trace(2, small_ring(64));
  // Proc 1 publishes objects 3 and 4 to reader 0 back-to-back (one staged
  // batch), then proc 0 consumes both. The consumer has the LOWER proc
  // index, so a single forward scan that matches while collecting would
  // see the consumes before the publishes — the two-pass regression.
  trace.record_at(1, 10, EventKind::kPutPublish, /*obj=*/3, /*ver=*/1,
                  /*dest=*/0, /*bytes=*/64, /*seq=*/1);
  trace.record_at(1, 11, EventKind::kPutPublish, /*obj=*/4, /*ver=*/1,
                  /*dest=*/0, /*bytes=*/64, /*seq=*/1);
  trace.record_at(0, 20, EventKind::kConsume, /*obj=*/3, /*ver=*/1,
                  /*owner=*/1, /*bytes=*/0, /*seq=*/1);
  trace.record_at(0, 21, EventKind::kConsume, /*obj=*/4, /*ver=*/1,
                  /*owner=*/1, /*bytes=*/0, /*seq=*/1);
  const std::string json = chrome_trace(trace).dump();
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"s\""), 2u) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"f\""), 2u) << json;
  // Distinct flow ids, each appearing exactly twice (its s and its f).
  EXPECT_EQ(count_occurrences(json, "\"id\": 1"), 2u) << json;
  EXPECT_EQ(count_occurrences(json, "\"id\": 2"), 2u) << json;
}

/// A republication of the same (object, reader) pair must not overwrite
/// the earlier publish's arrow: both consumptions resolve FIFO against
/// their own publication via the put-sequence stamp.
TEST(ChromeTraceFlows, RepublishKeepsEarlierArrowDistinct) {
  Trace trace(2, small_ring(64));
  trace.record_at(1, 10, EventKind::kPutPublish, 3, 1, 0, 64, /*seq=*/1);
  trace.record_at(1, 30, EventKind::kPutPublish, 3, 2, 0, 64, /*seq=*/2);
  trace.record_at(0, 20, EventKind::kConsume, 3, 1, 1, 0, /*seq=*/1);
  trace.record_at(0, 40, EventKind::kConsume, 3, 2, 1, 0, /*seq=*/2);
  const std::string json = chrome_trace(trace).dump();
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"s\""), 2u) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"f\""), 2u) << json;
  EXPECT_EQ(count_occurrences(json, "\"id\": 1"), 2u) << json;
  EXPECT_EQ(count_occurrences(json, "\"id\": 2"), 2u) << json;
}

/// Unstamped records (seq 0, e.g. simulator traces) fall back to the
/// (object, version, reader) plane and still pair up.
TEST(ChromeTraceFlows, VersionFallbackPairsUnstampedRecords) {
  Trace trace(2, small_ring(64));
  trace.record_at(1, 10, EventKind::kPutPublish, 3, 1, 0, 64, /*seq=*/0);
  trace.record_at(0, 20, EventKind::kConsume, 3, 1, 1, 0, /*seq=*/0);
  const std::string json = chrome_trace(trace).dump();
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"s\""), 1u) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"f\""), 1u) << json;
}

/// Run-id tagging: the executor stamps the trace before workers start and
/// the exporter uses it as the Chrome pid so merged multi-tenant
/// documents split per run.
TEST(ChromeTraceFlows, RunIdBecomesProcessGroup) {
  Trace trace(1, small_ring(64));
  trace.set_run_id(42);
  trace.record_at(0, 1, EventKind::kStateEnter, 0);
  trace.record_at(0, 5, EventKind::kStateEnter, 1);
  const std::string json = chrome_trace(trace).dump();
  EXPECT_NE(json.find("\"pid\": 42"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"pid\": 0,"), std::string::npos) << json;
  EXPECT_NE(json.find("rapid run 42"), std::string::npos) << json;
}

TEST(ObsSim, SimulatorEmitsSameVocabularyInModeledTime) {
  const int procs = 4;
  CounterApp app(procs);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  Trace trace(procs);
  const rt::RunReport report =
      rt::simulate(app.plan, app.config(liveness.min_mem()), &trace);
  ASSERT_TRUE(report.executable) << report.failure;

  std::int64_t task_begins = 0;
  for (int q = 0; q < procs; ++q) {
    std::set<int> states;
    for (const TraceEvent& e : trace.events(q)) {
      if (e.kind == EventKind::kStateEnter) states.insert(e.a);
      if (e.kind == EventKind::kTaskBegin) ++task_begins;
    }
    EXPECT_EQ(states.size(), static_cast<std::size_t>(ProtoState::kCount))
        << "proc " << q;
  }
  EXPECT_EQ(task_begins, report.tasks_executed);

  const OccupancyProfile occ = build_occupancy(trace);
  for (int q = 0; q < procs; ++q) {
    EXPECT_EQ(occ.high_water[static_cast<std::size_t>(q)],
              report.peak_bytes_per_proc[static_cast<std::size_t>(q)]);
  }
  ASSERT_TRUE(report.metrics);
  EXPECT_EQ(report.metrics->task_us.count(), report.tasks_executed);
}

}  // namespace
}  // namespace rapid::obs
