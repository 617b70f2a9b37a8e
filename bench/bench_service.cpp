// Multi-tenant runtime-service benchmark. Two rows, one artifact
// (BENCH_service.json):
//
//   steady   — an open-loop mixed workload (grid + cholesky + lu specs,
//              mixed priorities and deadlines) arriving at a fixed rate
//              within budget: measures service throughput (runs/sec),
//              per-run latency (p50/p99 of submit → terminal), and the
//              plan-cache hit rate that makes small runs cheap.
//   overload — a deliberate burst into a tiny budget and a short bounded
//              queue with deadline pressure: proves graceful degradation.
//              The row must show a *bounded* peak queue depth and a
//              *nonzero* shed count — unbounded growth or silent drops are
//              findings, and every non-completed run still carries its
//              structured admission/outcome report.
//   telemetry_guard — the same closed-loop steady workload run with the
//              telemetry plane off and on (registry bound + background
//              sampler writing snapshots every 50 ms). Best-of-N
//              throughput each way; telemetry_overhead_pct above the
//              --max_overhead_pct gate (default 3%) is a finding. This is
//              the regression fence that keeps "observability on" a
//              default, not a tax.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "rapid/obs/telemetry.hpp"
#include "rapid/rt/shm_health.hpp"
#include "rapid/support/exit_codes.hpp"
#include "rapid/support/file.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/json.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/support/str.hpp"
#include "rapid/support/table.hpp"
#include "rapid/svc/service.hpp"

using namespace rapid;

namespace {

std::int64_t percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct RowResult {
  std::string name;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  double runs_per_sec = 0.0;
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  double cache_hit_rate = 0.0;
  svc::ServiceReport report;
  bool numerics_bad = false;
};

JsonValue row_json(const RowResult& r) {
  JsonValue j = JsonValue::object();
  j["row"] = r.name;
  j["submitted"] = r.submitted;
  j["completed"] = r.completed;
  j["runs_per_sec"] = r.runs_per_sec;
  j["latency_p50_us"] = r.p50_us;
  j["latency_p99_us"] = r.p99_us;
  j["cache_hit_rate"] = r.cache_hit_rate;
  j["numerics_bad"] = r.numerics_bad;
  j["service"] = r.report.to_json();
  return j;
}

/// Submits `requests` open-loop at `arrival_us` spacing, waits for all,
/// and aggregates. Latency = submit → terminal for every run that ran.
RowResult drive(const std::string& name, svc::RuntimeService& service,
                const std::vector<svc::RunRequest>& requests,
                std::int64_t arrival_us) {
  RowResult row;
  row.name = name;
  Stopwatch wall;
  std::vector<std::int64_t> ids;
  ids.reserve(requests.size());
  for (const svc::RunRequest& req : requests) {
    ids.push_back(service.submit(req));
    if (arrival_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(arrival_us));
    }
  }
  std::vector<std::int64_t> latencies;
  for (const std::int64_t id : ids) {
    const svc::RunRecord& record = service.wait(id);
    ++row.submitted;
    if (record.state == svc::RunState::kCompleted) {
      ++row.completed;
      latencies.push_back(record.wait_us + record.exec_us);
      if (!record.numerics_ok) row.numerics_bad = true;
    }
  }
  const double seconds = wall.seconds();
  row.runs_per_sec =
      seconds > 0 ? static_cast<double>(row.completed) / seconds : 0.0;
  row.p50_us = percentile(latencies, 0.50);
  row.p99_us = percentile(latencies, 0.99);
  row.report = service.report();
  const std::int64_t lookups = row.report.cache_hits + row.report.cache_misses;
  row.cache_hit_rate =
      lookups > 0
          ? static_cast<double>(row.report.cache_hits) /
                static_cast<double>(lookups)
          : 0.0;
  return row;
}

/// One closed-loop steady pass; with `telemetry` the service is bound to a
/// registry and a background sampler snapshots it to `metrics_path` every
/// 50 ms (the production rapid_serve configuration, sped up so several
/// snapshots land even in a short pass).
double guard_pass(bool telemetry, std::size_t runs, std::int32_t workers,
                  const std::string& metrics_path) {
  const std::vector<std::string> mix = {
      "grid:rows=8,cols=8,procs=4",
      "grid:rows=6,cols=10,procs=4",
  };
  std::vector<svc::RunRequest> requests;
  for (std::size_t i = 0; i < runs; ++i) {
    svc::RunRequest req;
    req.spec = mix[i % mix.size()];
    req.config.capacity_per_proc = 1 << 20;
    requests.push_back(std::move(req));
  }
  svc::ServiceOptions sopts;
  sopts.workers = workers;
  sopts.queue_limit = static_cast<std::int32_t>(runs) + 1;
  svc::RuntimeService service(sopts);

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TelemetrySampler> sampler;
  if (telemetry) {
    service.bind_telemetry(registry);
    obs::TelemetrySamplerOptions topts;
    topts.path = metrics_path;
    topts.interval_ms = 50;
    sampler = std::make_unique<obs::TelemetrySampler>(registry, topts);
    sampler->add_probe(
        [&service](obs::MetricsRegistry&) { service.sample_telemetry(); });
    sampler->add_probe(
        [](obs::MetricsRegistry& reg) { rt::sample_shm_health(reg); });
    sampler->start();
  }
  const RowResult row = drive(telemetry ? "guard_on" : "guard_off", service,
                              requests, /*arrival_us=*/0);
  if (sampler) sampler->stop();
  return row.runs_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("runs", "48", "steady-row request count");
  flags.define("workers", "4", "service worker pool size");
  flags.define("arrival_us", "2000",
               "open-loop inter-arrival spacing for the steady row");
  flags.define("overload_runs", "16", "overload-row burst size");
  flags.define("guard_runs", "24",
               "telemetry-guard row request count per pass");
  flags.define("guard_passes", "3",
               "best-of-N passes per telemetry setting (damps scheduler "
               "noise)");
  flags.define("max_overhead_pct", "3",
               "telemetry_overhead_pct above this is a finding");
  flags.define("telemetry_file", "/tmp/bench_service_telemetry.prom",
               "snapshot path the guard row's sampler writes to");
  flags.define("json", "", "write BENCH_service.json here");
  try {
    flags.parse(argc, argv);
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  if (flags.help_requested()) return kExitOk;

  try {
    const auto n = static_cast<std::size_t>(flags.get_int("runs"));

    // -- steady row -------------------------------------------------------
    // A small spec mix: two grid shapes (exact integers, cheap), one
    // cholesky and one lu (real kernels) — deadlines generous, priorities
    // mixed, so the row measures throughput, not shedding.
    const std::vector<std::string> mix = {
        "grid:rows=8,cols=8,procs=4",
        "grid:rows=6,cols=10,procs=4",
        "cholesky:grid=8,block=4,procs=4",
        "lu:grid=8,block=4,procs=4",
    };
    std::vector<svc::RunRequest> steady;
    for (std::size_t i = 0; i < n; ++i) {
      svc::RunRequest req;
      req.spec = mix[i % mix.size()];
      req.config.capacity_per_proc = 1 << 20;
      req.priority = static_cast<std::int32_t>(i % 3);
      req.deadline_us = 30'000'000;  // generous: latency, not expiry
      steady.push_back(std::move(req));
    }
    svc::ServiceOptions sopts;
    sopts.workers = static_cast<std::int32_t>(flags.get_int("workers"));
    sopts.queue_limit = static_cast<std::int32_t>(n) + 1;
    RowResult steady_row;
    {
      svc::RuntimeService service(sopts);
      steady_row =
          drive("steady", service, steady, flags.get_int("arrival_us"));
    }

    // -- overload row -----------------------------------------------------
    // One worker, a budget that fits one run, a 4-deep queue, and a burst
    // with tight deadlines: the service must shed (bounded queue), expire
    // (deadline pressure), and keep completing what it admitted.
    const auto burst =
        static_cast<std::size_t>(flags.get_int("overload_runs"));
    std::vector<svc::RunRequest> overload;
    for (std::size_t i = 0; i < burst; ++i) {
      svc::RunRequest req;
      req.spec = "grid:rows=8,cols=8,procs=4,delay=1500";
      req.config.capacity_per_proc = 1 << 20;
      req.deadline_us = 400'000 + static_cast<std::int64_t>(i) * 50'000;
      overload.push_back(std::move(req));
    }
    svc::ServiceOptions oopts;
    oopts.workers = 1;
    oopts.queue_limit = 4;
    oopts.budget_bytes = 1 << 20;
    RowResult overload_row;
    {
      svc::RuntimeService service(oopts);
      overload_row = drive("overload", service, overload, 0);
    }

    // -- telemetry guard row ----------------------------------------------
    // Alternate off/on passes so clock drift and cache warm-up hit both
    // sides equally; compare best-of-N (steady-state capability, not the
    // noisiest pass).
    const auto guard_runs =
        static_cast<std::size_t>(flags.get_int("guard_runs"));
    const std::int64_t guard_passes =
        std::max<std::int64_t>(flags.get_int("guard_passes"), 1);
    const double max_overhead_pct =
        static_cast<double>(flags.get_int("max_overhead_pct"));
    double best_off = 0.0;
    double best_on = 0.0;
    for (std::int64_t pass = 0; pass < guard_passes; ++pass) {
      best_off = std::max(
          best_off, guard_pass(false, guard_runs, sopts.workers, ""));
      best_on = std::max(
          best_on, guard_pass(true, guard_runs, sopts.workers,
                              flags.get("telemetry_file")));
    }
    const double overhead_pct =
        best_off > 0.0
            ? std::max(0.0, 100.0 * (best_off - best_on) / best_off)
            : 0.0;

    TextTable table({"row", "submitted", "completed", "runs/s", "p50 ms",
                     "p99 ms", "cache hit%", "shed", "expired", "peak q"});
    for (const RowResult* r : {&steady_row, &overload_row}) {
      table.add_row({r->name, std::to_string(r->submitted),
                     std::to_string(r->completed),
                     fixed(r->runs_per_sec, 1),
                     fixed(static_cast<double>(r->p50_us) / 1000.0, 2),
                     fixed(static_cast<double>(r->p99_us) / 1000.0, 2),
                     fixed(100.0 * r->cache_hit_rate, 1),
                     std::to_string(r->report.shed),
                     std::to_string(r->report.expired),
                     std::to_string(r->report.peak_queue_depth)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\ntelemetry guard: %.1f runs/s off, %.1f runs/s on, "
                "overhead %.2f%% (gate %.0f%%)\n",
                best_off, best_on, overhead_pct, max_overhead_pct);

    JsonValue doc = JsonValue::object();
    doc["artifact"] = "bench_service";
    JsonValue rows = JsonValue::array();
    rows.push_back(row_json(steady_row));
    rows.push_back(row_json(overload_row));
    {
      JsonValue guard = JsonValue::object();
      guard["row"] = "telemetry_guard";
      guard["passes"] = guard_passes;
      guard["runs_per_pass"] = static_cast<std::int64_t>(guard_runs);
      guard["runs_per_sec_telemetry_off"] = best_off;
      guard["runs_per_sec_telemetry_on"] = best_on;
      guard["telemetry_overhead_pct"] = overhead_pct;
      guard["max_overhead_pct"] = max_overhead_pct;
      rows.push_back(std::move(guard));
    }
    doc["rows"] = std::move(rows);
    if (!flags.get("json").empty()) {
      write_file(flags.get("json"), doc.dump());
      std::printf("\njson results written to %s\n",
                  flags.get("json").c_str());
    }

    // Findings: wrong numerics anywhere; an overload row that failed to
    // degrade gracefully (nothing shed => the bounded queue never bound, or
    // the queue outgrew its limit).
    bool findings = steady_row.numerics_bad || overload_row.numerics_bad;
    if (steady_row.completed == 0) findings = true;
    if (overload_row.report.shed == 0 ||
        overload_row.report.peak_queue_depth > oopts.queue_limit) {
      std::fprintf(stderr,
                   "bench_service: overload row did not degrade gracefully "
                   "(shed=%lld, peak queue=%d, limit=%d)\n",
                   static_cast<long long>(overload_row.report.shed),
                   overload_row.report.peak_queue_depth, oopts.queue_limit);
      findings = true;
    }
    if (overhead_pct > max_overhead_pct) {
      std::fprintf(stderr,
                   "bench_service: telemetry overhead %.2f%% exceeds the "
                   "%.0f%% gate (off %.1f runs/s, on %.1f runs/s)\n",
                   overhead_pct, max_overhead_pct, best_off, best_on);
      findings = true;
    }
    return findings ? kExitFindings : kExitOk;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_service: %s\n", e.what());
    return kExitInfraError;
  }
}
