// serve_mix: a RuntimeService with 2 workers fed p = 2 specs (4 rank
// threads in all) at 1 MB capacity from one seeded request stream. In
// every block of 16 requests one, at a seeded position, is a cold grid spec
// drawn from 62 shapes (more than the 32-entry plan cache holds, so it
// builds its plan in submit()); the other 15 are the four hot specs of
// bench_service, which hit the cache. The stream runs closed-loop with two
// clients in epochs of a fresh, pre-warmed service (so retained run records
// cannot grow with throughput), then open-loop from one generator thread at
// three fixed rates. In the traced run the first traced run of each hot spec
// is checked by verify::check_conformance against the spec's plan.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "dataplane.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/telemetry.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/svc/admission.hpp"
#include "rapid/svc/service.hpp"
#include "rapid/verify/conformance.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace rapid;

constexpr std::int64_t kCapacity = 1 << 20;
constexpr int kClients = 2;
// Requests per closed-loop epoch and per open-loop phase. Fixed counts keep
// the run records a service retains, and so RSS, independent of speed.
constexpr int kEpochRequests = 512;
constexpr int kOpenRequests = 1024;
// Fixed open-loop rates: about a quarter, half and three quarters of the
// closed-loop capacity (~2k runs/s on one CPU), so the queue stays stable.
constexpr double kOpenRates[3] = {500.0, 1000.0, 1500.0};
constexpr double kLimitMs = 5.0;

const std::vector<std::string>& hot_specs() {
  static const std::vector<std::string> specs = {
      "grid:rows=8,cols=8,procs=2",
      "grid:rows=6,cols=10,procs=2",
      "cholesky:grid=8,block=4,procs=2",
      "lu:grid=8,block=4,procs=2",
  };
  return specs;
}

const std::vector<std::string>& cold_specs() {
  static const std::vector<std::string> specs = [] {
    std::vector<std::string> out;
    for (int r = 4; r <= 11; ++r) {
      for (int c = 4; c <= 11; ++c) {
        if ((r == 8 && c == 8) || (r == 6 && c == 10)) continue;
        out.push_back("grid:rows=" + std::to_string(r) +
                      ",cols=" + std::to_string(c) + ",procs=2");
      }
    }
    return out;
  }();
  return specs;
}

/// Request i of the seeded stream: (spec index into hot or cold, cold?).
/// Stateless, so concurrent clients draw from one stream without a lock.
std::pair<std::size_t, bool> stream_at(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t block = i / 16;
  const bool cold = mix64(seed * 0x100000001b3ull ^ block) % 16 == i % 16;
  const std::uint64_t h = mix64(seed ^ (i * 0x9E3779B97F4A7C15ull));
  return {cold ? h % cold_specs().size() : h % hot_specs().size(), cold};
}

svc::RunRequest request_for(const std::string& spec, obs::Trace* trace) {
  svc::RunRequest req;
  req.spec = spec;
  req.config.capacity_per_proc = kCapacity;
  req.options.trace = trace;
  return req;
}

/// Per-hot-spec references: the plan the service runs (the plan cache
/// builds it with the same call), its config, the simulator's counters and
/// S1 / p.
struct HotRef {
  std::unique_ptr<num::ShmWorkload> workload;
  rt::RunConfig config;
  rt::RunReport oracle;
  double s1_per_proc = 0;
};

/// A traced run kept for the conformance check: the first one of each hot
/// spec (`claimed` marks the specs already taken).
struct TracedRun {
  std::size_t hot_index = 0;
  std::unique_ptr<obs::Trace> trace;
  rt::RunReport report;
};
struct Conformance {
  std::vector<std::atomic<bool>> claimed =
      std::vector<std::atomic<bool>>(hot_specs().size());
  std::vector<TracedRun> runs;  // guarded by the epoch's merge lock
};

/// One finished request as the client saw it. Kept small: a run stores one
/// per request, and its size must not make RSS follow throughput.
struct Sample {
  double latency_ms = 0;  // client side (closed) or from scheduled send (open)
  double submit_us = 0;
  double wait_ms = 0;
  double exec_ms = 0;
  double lag_ms = 0;      // open loop: generator behind schedule
};

/// Run counters summed over completed requests, and the largest per-proc
/// peak over S1 / p among hot-spec runs.
struct RunTotals {
  double runs = 0, rec = 0, exe = 0, snd = 0, map = 0, end = 0, parks = 0;
  double tasks = 0, msgs = 0, bytes = 0, batches = 0, flags = 0, addr = 0;
  double susp = 0, maps = 0, peak_bytes = 0, peak_ratio = 0;

  void add(const rt::RunReport& r, double s1_per_proc) {
    runs += 1;
    if (r.metrics) {
      const auto& res = r.metrics->state_residency_us;
      rec += res[static_cast<std::size_t>(obs::ProtoState::kRec)] * 1e-6;
      exe += res[static_cast<std::size_t>(obs::ProtoState::kExe)] * 1e-6;
      snd += res[static_cast<std::size_t>(obs::ProtoState::kSnd)] * 1e-6;
      map += res[static_cast<std::size_t>(obs::ProtoState::kMap)] * 1e-6;
      end += res[static_cast<std::size_t>(obs::ProtoState::kEnd)] * 1e-6;
      parks += static_cast<double>(r.metrics->parks);
    }
    tasks += static_cast<double>(r.tasks_executed);
    msgs += static_cast<double>(r.content_messages);
    bytes += static_cast<double>(r.content_bytes);
    batches += static_cast<double>(r.put_batches);
    flags += static_cast<double>(r.flag_messages);
    addr += static_cast<double>(r.addr_packages);
    susp += static_cast<double>(r.suspended_sends);
    maps += r.avg_maps();
    if (!r.peak_bytes_per_proc.empty()) {
      const double peak = static_cast<double>(*std::max_element(
          r.peak_bytes_per_proc.begin(), r.peak_bytes_per_proc.end()));
      peak_bytes = std::max(peak_bytes, peak);
      if (s1_per_proc > 0) peak_ratio = std::max(peak_ratio, peak / s1_per_proc);
    }
  }
  void merge(const RunTotals& o) {
    runs += o.runs; rec += o.rec; exe += o.exe; snd += o.snd; map += o.map;
    end += o.end; parks += o.parks; tasks += o.tasks; msgs += o.msgs;
    bytes += o.bytes; batches += o.batches; flags += o.flags; addr += o.addr;
    susp += o.susp; maps += o.maps;
    peak_bytes = std::max(peak_bytes, o.peak_bytes);
    peak_ratio = std::max(peak_ratio, o.peak_ratio);
  }
};

/// Checks a terminal record and counts it.
void check_record(const svc::RunRecord& r, std::size_t hot_index, bool cold,
                  const std::vector<HotRef>& refs, Result& out) {
  if (r.state != svc::RunState::kCompleted) {
    out.count(false, r.spec + " ended " + svc::to_string(r.state) + ": " +
                         r.reason);
    return;
  }
  const bool grid = r.spec.rfind("grid:", 0) == 0;
  if (!r.numerics_ok || (grid && r.residual != 0.0)) {
    out.count(false, r.spec + " residual " + std::to_string(r.residual));
    return;
  }
  if (!cold) {
    const std::string m = oracle_mismatch(r.outcome.report, refs[hot_index].oracle);
    if (!m.empty()) {
      out.count(false, r.spec + ": " + m);
      return;
    }
  }
  out.count(true, "");
}

struct Epoch {
  double setup_s = 0;
  double busy_s = 0;  // wall time of the measured traffic
  svc::ServiceReport report;
  std::int64_t telemetry_ticks = 0;
};

enum class Mode { kPlain, kTraced, kTelemetry };

/// Builds and warms a service (one request per hot spec), then runs
/// `traffic` against it. setup_s covers construction and warm-up.
template <typename Traffic>
Epoch with_service(const Args& args, Mode mode, SpanLog& log, Traffic&& traffic) {
  Epoch e;
  const std::int64_t t0 = now_ns();
  const std::int64_t sid = log.open(log.intern("bench.setup"), -1, -1, t0);
  svc::ServiceOptions so;
  so.workers = 2;
  so.queue_limit = 1 << 20;  // never shed: an open-loop backlog only waits
  auto service = std::make_unique<svc::RuntimeService>(so);
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TelemetrySampler> sampler;
  if (mode == Mode::kTelemetry) {
    service->bind_telemetry(registry);
    obs::TelemetrySamplerOptions topts;
    topts.path = args.out_dir + "/telemetry.prom";
    topts.interval_ms = 50;
    sampler = std::make_unique<obs::TelemetrySampler>(registry, topts);
    svc::RuntimeService* s = service.get();
    sampler->add_probe([s](obs::MetricsRegistry&) { s->sample_telemetry(); });
    sampler->start();
  }
  for (const std::string& spec : hot_specs()) {
    service->wait(service->submit(request_for(spec, nullptr)));
  }
  log.close(sid, now_ns());
  e.setup_s = seconds_since(t0);
  const std::int64_t t1 = now_ns();
  traffic(*service);
  e.busy_s = seconds_since(t1);
  e.report = service->report();
  if (sampler) {
    sampler->stop();
    e.telemetry_ticks = sampler->ticks();
  }
  service.reset();
  return e;
}

/// Closed loop: kClients threads, each submitting its next request when
/// the previous one is terminal, for one epoch of kEpochRequests.
Epoch closed_epoch(const Args& args, Mode mode, std::uint64_t& next,
                   const std::vector<HotRef>& refs, SpanLog& log,
                   std::vector<Sample>& samples, RunTotals& totals, Result& out,
                   Conformance* conformance = nullptr) {
  std::mutex m;
  const std::uint64_t first = next;
  next += kEpochRequests;
  std::atomic<std::uint64_t> cursor{first};
  const std::int32_t req_name = log.intern("bench.request");
  const std::int32_t submit_name = log.intern("svc.submit");
  const std::int32_t queue_name = log.intern("svc.queue");
  const std::int32_t exec_name = log.intern("svc.exec");
  return with_service(args, mode, log, [&](svc::RuntimeService& service) {
    auto client = [&] {
      std::vector<Sample> local;
      RunTotals sums;
      std::vector<std::pair<const svc::RunRecord*, std::pair<std::size_t, bool>>> done;
      std::vector<TracedRun> kept;
      std::int64_t dropped = 0;
      for (;;) {
        const std::uint64_t i = cursor.fetch_add(1);
        if (i >= first + kEpochRequests) break;
        const auto [index, cold] = stream_at(args.seed, i);
        const std::string& spec =
            cold ? cold_specs()[index] : hot_specs()[index];
        std::unique_ptr<obs::Trace> trace;
        if (mode == Mode::kTraced) {
          obs::TraceConfig tc;
          tc.events_per_proc = 1 << 12;
          trace = std::make_unique<obs::Trace>(2, tc);
        }
        const std::int64_t t0 = now_ns();
        const std::int64_t rid = log.open(req_name, -1, static_cast<std::int64_t>(i), t0);
        const std::int64_t id = service.submit(request_for(spec, trace.get()));
        const std::int64_t t1 = now_ns();
        const svc::RunRecord& r = service.wait(id);
        const std::int64_t t2 = now_ns();
        // The request's children: submit() on the client, then the queue
        // and executor time the service measured; what remains of the
        // request (its self time) is the hand-off back to the client.
        const auto op = static_cast<std::int64_t>(i);
        const std::int64_t t_exec = t1 + r.wait_us * 1000;
        log.record(submit_name, rid, op, t0, t1);
        log.record(queue_name, rid, op, t1, t_exec);
        log.record(exec_name, rid, op, t_exec, t_exec + r.exec_us * 1000);
        log.close(rid, t2);
        Sample s;
        s.latency_ms = static_cast<double>(t2 - t0) * 1e-6;
        s.submit_us = static_cast<double>(t1 - t0) * 1e-3;
        s.wait_ms = static_cast<double>(r.wait_us) * 1e-3;
        s.exec_ms = static_cast<double>(r.exec_us) * 1e-3;
        if (r.has_outcome) sums.add(r.outcome.report, cold ? 0.0 : refs[index].s1_per_proc);
        local.push_back(s);
        done.push_back({&r, {index, cold}});
        if (trace) {
          dropped += trace->total_dropped();
          if (conformance != nullptr && !cold && r.has_outcome &&
              !conformance->claimed[index].exchange(true)) {
            kept.push_back({index, std::move(trace), r.outcome.report});
          }
        }
      }
      std::lock_guard<std::mutex> lock(m);
      if (dropped > 0) {
        out.findings.push_back("trace rings dropped " + std::to_string(dropped) + " events");
      }
      for (TracedRun& k : kept) conformance->runs.push_back(std::move(k));
      for (const auto& [r, key] : done) check_record(*r, key.first, key.second, refs, out);
      samples.insert(samples.end(), local.begin(), local.end());
      totals.merge(sums);
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
  });
}

struct OpenPhase {
  double rate = 0;
  double p99_ms = 0;
  double drain_ms = 0;
  double lag_p99_ms = 0;
  std::int64_t samples = 0;
  bool overloaded = false;  // backlog passed its cap; sending stopped early
  bool meets = false;
};

/// Open loop: one generator sends kOpenRequests requests, request k at
/// t0 + k / rate whatever the state of earlier ones; latency runs from that
/// scheduled time.
OpenPhase open_phase(const Args& args, double rate,
                     std::uint64_t& next, const std::vector<HotRef>& refs,
                     SpanLog& log, Result& out) {
  OpenPhase ph;
  ph.rate = rate;
  const std::int64_t count = kOpenRequests;
  std::vector<Sample> samples;
  with_service(args, Mode::kPlain, log, [&](svc::RuntimeService& service) {
    std::vector<std::int64_t> ids(static_cast<std::size_t>(count));
    std::vector<std::int64_t> lag(static_cast<std::size_t>(count));   // send start - due
    std::vector<std::int64_t> sent(static_cast<std::size_t>(count));  // submit return - due
    std::vector<std::pair<std::size_t, bool>> keys(static_cast<std::size_t>(count));
    const std::int64_t t0 = now_ns() + 1'000'000;
    const double period_ns = 1e9 / rate;
    // A backlog beyond a quarter second of arrivals means the rate is past
    // capacity: stop sending, so an overloaded phase cannot stretch the run.
    const auto backlog_cap = static_cast<std::int64_t>(std::max(64.0, rate * 0.25));
    std::int64_t sent_count = 0;
    for (std::int64_t k = 0; k < count; ++k, ++sent_count) {
      if (k % 32 == 0) {
        const svc::ServiceReport rep = service.report();
        if (rep.submitted - rep.completed - rep.failed - rep.rejected - rep.shed -
                rep.expired > backlog_cap) {
          ph.overloaded = true;
          break;
        }
      }
      const auto due = t0 + static_cast<std::int64_t>(period_ns * static_cast<double>(k));
      // now_ns() reads steady_clock, so `due` converts to its time points.
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const auto key = stream_at(args.seed, next++);
      keys[static_cast<std::size_t>(k)] = key;
      const std::string& spec =
          key.second ? cold_specs()[key.first] : hot_specs()[key.first];
      lag[static_cast<std::size_t>(k)] = now_ns() - due;
      ids[static_cast<std::size_t>(k)] = service.submit(request_for(spec, nullptr));
      sent[static_cast<std::size_t>(k)] = now_ns() - due;
    }
    const std::int64_t last_due =
        t0 + static_cast<std::int64_t>(period_ns * static_cast<double>(sent_count - 1));
    for (std::int64_t k = 0; k < sent_count; ++k) {
      const svc::RunRecord& r = service.wait(ids[static_cast<std::size_t>(k)]);
      check_record(r, keys[static_cast<std::size_t>(k)].first,
                   keys[static_cast<std::size_t>(k)].second, refs, out);
      Sample s;
      // submit() stamps its clock after building the plan, so the request
      // was terminal at about (submit return) + wait + exec.
      s.lag_ms = static_cast<double>(lag[static_cast<std::size_t>(k)]) * 1e-6;
      s.latency_ms = static_cast<double>(sent[static_cast<std::size_t>(k)]) * 1e-6 +
                     static_cast<double>(r.wait_us + r.exec_us) * 1e-3;
      samples.push_back(s);
    }
    ph.drain_ms = std::max(0.0, static_cast<double>(now_ns() - last_due) * 1e-6);
  });
  std::vector<double> lat, lag;
  for (const Sample& s : samples) {
    lat.push_back(s.latency_ms);
    lag.push_back(s.lag_ms);
  }
  ph.samples = static_cast<std::int64_t>(samples.size());
  ph.p99_ms = nearest_rank(lat, 0.99);
  ph.lag_p99_ms = nearest_rank(lag, 0.99);
  ph.meets = !ph.overloaded && ph.p99_ms <= kLimitMs && ph.drain_ms <= kLimitMs;
  return ph;
}

/// Closed-loop completions per second of each epoch.
std::vector<double> epoch_rates(const std::vector<Epoch>& epochs) {
  std::vector<double> r;
  for (const Epoch& e : epochs) r.push_back(kEpochRequests / e.busy_s);
  return r;
}

template <typename Get>
std::vector<double> column(const std::vector<Sample>& s, Get get) {
  std::vector<double> v;
  v.reserve(s.size());
  for (const Sample& x : s) v.push_back(get(x));
  return v;
}

}  // namespace

void run_serve_workload(const Args& args, SpanLog& log, Result& out) {
  SpanLog off(false, 0);
  // References for the hot specs, built outside any timing.
  std::vector<HotRef> refs;
  double demand_s = 0;
  for (const std::string& spec : hot_specs()) {
    HotRef ref;
    ref.workload = num::build_shm_workload(spec);
    const rt::RunPlan& plan = ref.workload->plan;
    ref.config = request_for(spec, nullptr).config;
    ref.oracle = rt::simulate(plan, ref.config);
    ref.s1_per_proc = static_cast<double>(ref.workload->graph().sequential_space()) /
                      plan.num_procs;
    const std::int64_t t0 = now_ns();
    const svc::RunDemand d = svc::compute_demand(plan, ref.config);
    demand_s += seconds_since(t0);
    RAPID_CHECK(d.executable, "hot spec not executable at 1 MB: " + spec);
    refs.push_back(std::move(ref));
  }

  std::uint64_t next = 0;
  const std::int64_t t_start = now_ns();
  if (!args.trace) {
    // Closed loop for the run's time less about 10% left for the three
    // open-loop phases (kOpenRequests each).
    std::vector<Sample> samples;
    // Reserved for far more requests than a run makes: the untouched pages
    // cost no RSS, and the store grows page by page instead of doubling,
    // which would make peak RSS jump whenever a run crossed a power of two.
    samples.reserve(static_cast<std::size_t>(args.seconds * 20'000));
    std::vector<Epoch> epochs;
    RunTotals totals;
    do {
      epochs.push_back(
          closed_epoch(args, Mode::kPlain, next, refs, off, samples, totals, out));
    } while (seconds_since(t_start) < 0.9 * args.seconds);
    const double rss_closed = rss_peak_mb();
    std::vector<OpenPhase> phases;
    for (const double rate : kOpenRates) {
      phases.push_back(open_phase(args, rate, next, refs, off, out));
    }

    std::vector<double> setup;
    for (const Epoch& e : epochs) setup.push_back(e.setup_s);
    const std::vector<double> latency =
        column(samples, [](const Sample& s) { return s.latency_ms; });
    const std::vector<double> exec =
        column(samples, [](const Sample& s) { return s.exec_ms * 1e-3; });
    const double ratio = totals.peak_ratio;
    add_setup_s(out, setup);
    out.add("rss_peak_mb", rss_peak_mb(), "MB");
    out.add("peak_mem_ratio", ratio, "ratio");
    add_timings(out, exec, latency, epoch_rates(epochs), "requests");
    out.note("closed_loop", std::to_string(kClients) + " clients, " +
                                std::to_string(epochs.size()) + " epochs, peak RSS " +
                                std::to_string(rss_closed) + " MB before the open loop");
    double slo = 0;
    const char* names[3] = {"low", "mid", "high"};
    for (std::size_t k = 0; k < phases.size(); ++k) {
      const OpenPhase& ph = phases[k];
      out.note(std::string("open_p99_ms.") + names[k],
               std::to_string(ph.p99_ms) + " ms at " + std::to_string(ph.rate) +
                   " runs/s (" + (ph.overloaded ? "overloaded, stopped after " : "") +
                   std::to_string(ph.samples) + " requests, drain " +
                   std::to_string(ph.drain_ms) + " ms, generator lag p99 " +
                   std::to_string(ph.lag_p99_ms) + " ms)");
      if (ph.meets) slo = std::max(slo, ph.rate);
    }
    out.note("slo_rate", std::to_string(slo) + " runs/s (p99 <= 5 ms, drain <= 5 ms)");
    return;
  }

  // Traced run: epochs rotate plain / traced / telemetry-on. Per-layer svc
  // numbers come from the traced epochs; the two overheads compare each
  // instrumented kind against the plain epochs.
  std::vector<Sample> plain, traced, telem;
  std::vector<Epoch> plain_e, traced_e, telem_e;
  RunTotals plain_t, t, telem_t;  // t: the traced epochs' runs
  Conformance conformance;
  do {
    plain_e.push_back(closed_epoch(args, Mode::kPlain, next, refs, off, plain, plain_t, out));
    traced_e.push_back(
        closed_epoch(args, Mode::kTraced, next, refs, log, traced, t, out, &conformance));
    telem_e.push_back(
        closed_epoch(args, Mode::kTelemetry, next, refs, off, telem, telem_t, out));
  } while (seconds_since(t_start) < 0.9 * args.seconds);
  const OpenPhase ph = open_phase(args, kOpenRates[1], next, refs, off, out);

  int conformance_errors = 0;
  for (const TracedRun& run : conformance.runs) {
    const HotRef& ref = refs[run.hot_index];
    verify::ConformanceOptions copts;
    copts.capacity_per_proc = ref.config.capacity_per_proc;
    copts.active_memory = ref.config.active_memory;
    copts.alloc_policy = ref.config.alloc_policy;
    copts.slab_arena = ref.config.slab_arena;
    copts.alignment = 8;  // rt::ProcMemory alignment in the threaded executor
    copts.report = &run.report;
    const verify::AuditReport conf =
        verify::check_conformance(ref.workload->plan, *run.trace, copts);
    conformance_errors += conf.errors();
    if (!conf.clean()) {
      out.findings.push_back("conformance " + hot_specs()[run.hot_index] + ": " +
                             conf.to_string());
    }
  }
  if (conformance.runs.size() != hot_specs().size()) {
    out.findings.push_back("conformance checked " + std::to_string(conformance.runs.size()) +
                           " of " + std::to_string(hot_specs().size()) + " hot specs");
  }
  out.note("conformance_errors", std::to_string(conformance_errors));

  const std::vector<double> submit = column(traced, [](const Sample& s) { return s.submit_us; });
  const std::vector<double> wait = column(traced, [](const Sample& s) { return s.wait_ms; });
  const std::vector<double> exec = column(traced, [](const Sample& s) { return s.exec_ms; });
  const std::vector<double> wake = column(traced, [](const Sample& s) {
    return s.latency_ms - s.wait_ms - s.exec_ms;
  });
  const double n = std::max(1.0, t.runs);
  std::int64_t hits = 0, lookups = 0, reserved = 0;
  for (const Epoch& e : traced_e) {
    hits += e.report.cache_hits;
    lookups += e.report.cache_hits + e.report.cache_misses;
    reserved = std::max(reserved, e.report.peak_reserved_bytes);
  }
  // Data plane over the hot specs' put sizes.
  std::vector<std::int64_t> sizes;
  for (const std::string& spec : hot_specs()) {
    const std::vector<std::int64_t> s = put_sizes(num::build_shm_workload(spec)->plan);
    sizes.insert(sizes.end(), s.begin(), s.end());
  }
  const DataPlane dp = calibrate(sizes, 0.1);

  out.add("svc.demand_s", demand_s / static_cast<double>(refs.size()), "s");
  out.add("rt.tasks", t.tasks / n, "count");
  out.add("rt.content_messages", t.msgs / n, "count");
  out.add("rt.content_bytes", t.bytes / n, "bytes");
  out.add("rt.put_batches", t.batches / n, "count");
  out.add("rt.flag_messages", t.flags / n, "count");
  out.add("rt.addr_packages", t.addr / n, "count");
  out.add("rt.suspended_sends", t.susp / n, "count");
  out.add("mem.maps_per_proc", t.maps / n, "count");
  out.add("mem.peak_bytes_max", t.peak_bytes, "bytes");
  out.add("support.crc_gbps", dp.crc_gbps, "GB/s");
  out.add("support.memcpy_gbps", dp.memcpy_gbps, "GB/s");
  out.add("support.crc_bytes", 2.0 * t.bytes / n, "bytes");
  out.add("svc.submit_us_p50", median(submit), "us");
  out.add("svc.submit_us_p99", nearest_rank(submit, 0.99), "us");
  out.add("svc.queue_wait_ms_p50", median(wait), "ms");
  out.add("svc.queue_wait_ms_p99", nearest_rank(wait, 0.99), "ms");
  out.add("svc.exec_ms_p50", median(exec), "ms");
  out.add("svc.exec_ms_p99", nearest_rank(exec, 0.99), "ms");
  out.add("svc.wake_ms_p50", median(wake), "ms");
  out.add("svc.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
          "ratio");
  out.add("svc.peak_reserved_bytes", static_cast<double>(reserved), "bytes");
  out.add("svc.generator_lag_ms", ph.lag_p99_ms, "ms");
  out.add("obs.rec_s", t.rec / n, "s");
  out.add("obs.exe_s", t.exe / n, "s");
  out.add("obs.snd_s", t.snd / n, "s");
  out.add("obs.map_s", t.map / n, "s");
  out.add("obs.end_s", t.end / n, "s");
  out.add("obs.parks", t.parks / n, "count");
  const double plain_rate = median(epoch_rates(plain_e));
  out.add("obs.trace_overhead", plain_rate / median(epoch_rates(traced_e)) - 1.0, "ratio");
  out.add("obs.telemetry_overhead", plain_rate / median(epoch_rates(telem_e)) - 1.0,
          "ratio");
  std::int64_t ticks = 0;
  for (const Epoch& e : telem_e) ticks += e.telemetry_ticks;
  out.note("telemetry_ticks", std::to_string(ticks));
  out.note("overhead_base", std::to_string(plain.size()) + " plain, " +
                                std::to_string(traced.size()) + " traced, " +
                                std::to_string(telem.size()) +
                                " telemetry requests (median epoch runs/s)");
}

}  // namespace perfbench
