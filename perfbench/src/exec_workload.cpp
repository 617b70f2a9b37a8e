// The executor workloads: one factorization plan, built by calling each
// layer's public entry point in turn (matrix generator, app build, ordering,
// liveness, run plan, admission replay), then solved back to back on the
// threaded executor. A solve is executor construction + run() + destruction;
// the caller's latency adds reading the factor back from the owner heaps.
//
//   lu_goodwin — goodwin_like(0.7, seed), block 24, RCP, active memory at the
//                first executable capacity >= 60% of TOT: kernel and byte
//                bound, few MAPs.
//   chol_tight — bcsstk24_like(1.0) with seeded SPD values, block 8, DTS at
//                MIN_MEM: protocol, MAP and mailbox bound, tiny kernels.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "checks.hpp"
#include "dataplane.hpp"
#include "rapid/machine/params.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/lu_app.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/map_engine.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/svc/admission.hpp"
#include "rapid/verify/conformance.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace rapid;

constexpr int kProcs = 4;
constexpr double kResidualLimit = 1e-8;
constexpr int kSpanSolves = 8;

/// Replaces the values of a symmetric pattern with seeded ones: each
/// off-diagonal pair gets the same -u, u in [0.25, 1), and the diagonal is
/// the absolute row sum plus one, so the matrix stays SPD while the
/// structure (and so every plan counter) is unchanged.
sparse::CscMatrix seeded_spd(sparse::CscMatrix a, std::uint64_t seed) {
  const sparse::Index n = a.n_cols();
  std::vector<double> row_sum(static_cast<std::size_t>(n), 0.0);
  for (sparse::Index c = 0; c < n; ++c) {
    for (sparse::Index e = a.pattern.col_ptr[c]; e < a.pattern.col_ptr[c + 1];
         ++e) {
      const sparse::Index r = a.pattern.row_idx[e];
      if (r == c) continue;
      const auto lo = static_cast<std::uint64_t>(std::min(r, c));
      const auto hi = static_cast<std::uint64_t>(std::max(r, c));
      const double u =
          0.25 + 0.75 * static_cast<double>(mix64(seed ^ (lo << 32 | hi)) >> 11) *
                     0x1.0p-53;
      a.values[static_cast<std::size_t>(e)] = -u;
      row_sum[c] += u;
    }
  }
  for (sparse::Index c = 0; c < n; ++c) {
    for (sparse::Index e = a.pattern.col_ptr[c]; e < a.pattern.col_ptr[c + 1];
         ++e) {
      if (a.pattern.row_idx[e] == c) a.values[e] = row_sum[c] + 1.0;
    }
  }
  return a;
}

/// One built instance of the workload: app (owns the graph), schedule and
/// plan, and the capacity the solves run at.
struct Problem {
  std::unique_ptr<num::CholeskyApp> chol;
  std::unique_ptr<num::LuApp> lu;
  sched::Schedule schedule;
  std::unique_ptr<rt::RunPlan> plan;
  rt::RunConfig config;
  std::int64_t min_mem = 0;
  std::int64_t tot_mem = 0;

  const graph::TaskGraph& graph() const {
    return chol ? chol->graph() : lu->graph();
  }
};

struct SetupTimes {
  double gen = 0, build = 0, schedule = 0, liveness = 0, plan = 0, demand = 0;
  double total = 0;
};

/// Runs `fn`, returning its wall time in seconds and recording it as a
/// child span of `parent`.
template <typename Fn>
double timed(SpanLog& log, const char* name, std::int64_t parent,
             std::int64_t op, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  const std::int64_t id = log.open(log.intern(name), parent, op, t0);
  fn();
  const std::int64_t t1 = now_ns();
  log.close(id, t1);
  return static_cast<double>(t1 - t0) * 1e-9;
}

Problem setup(bool lu, std::uint64_t seed, SpanLog& log,
              std::int64_t op, SetupTimes& t) {
  Problem pr;
  const std::int64_t t0 = now_ns();
  const std::int64_t root = log.open(log.intern("bench.setup"), -1, op, t0);
  sparse::CscMatrix matrix;
  t.gen = timed(log, "sparse.matrix_gen", root, op, [&] {
    matrix = lu ? num::goodwin_like(0.7, seed).matrix
                : seeded_spd(num::bcsstk24_like(1.0).matrix, seed);
  });
  t.build = timed(log, "num.app_build", root, op, [&] {
    if (lu) {
      pr.lu = std::make_unique<num::LuApp>(
          num::LuApp::build(std::move(matrix), 24, kProcs));
    } else {
      pr.chol = std::make_unique<num::CholeskyApp>(
          num::CholeskyApp::build(std::move(matrix), 8, kProcs));
    }
  });
  const graph::TaskGraph& g = pr.graph();
  pr.config.params = machine::MachineParams::cray_t3d(kProcs);
  t.schedule = timed(log, "sched.schedule", root, op, [&] {
    const auto owners = sched::owner_compute_tasks(g, kProcs);
    pr.schedule = lu ? sched::schedule_rcp(g, owners, kProcs, pr.config.params)
                     : sched::schedule_dts(g, owners, kProcs, pr.config.params);
  });
  t.liveness = timed(log, "sched.liveness", root, op, [&] {
    const sched::LivenessTable live = sched::analyze_liveness(g, pr.schedule);
    pr.min_mem = live.min_mem();
    pr.tot_mem = live.tot_mem();
  });
  t.plan = timed(log, "rt.plan_build", root, op, [&] {
    pr.plan = std::make_unique<rt::RunPlan>(
        rt::build_run_plan(g, pr.schedule));
  });
  // Capacity: lu_goodwin takes the first executable capacity from 60% of
  // TOT upward, chol_tight the first from MIN_MEM upward, in 8-byte steps
  // of about 1% of the start point; admission's replay decides.
  t.demand = timed(log, "svc.demand", root, op, [&] {
    const std::int64_t start =
        lu ? static_cast<std::int64_t>(std::ceil(0.6 * pr.tot_mem)) : pr.min_mem;
    const std::int64_t step = std::max<std::int64_t>(8, start / 100 / 8 * 8);
    std::int64_t cap = (start + 7) / 8 * 8;
    for (int i = 0;; ++i, cap += step) {
      RAPID_CHECK(i < 400, "no executable capacity found");
      pr.config.capacity_per_proc = cap;
      if (svc::compute_demand(*pr.plan, pr.config).executable) break;
    }
  });
  const std::int64_t t1 = now_ns();
  log.close(root, t1);
  t.total = static_cast<double>(t1 - t0) * 1e-9;
  return pr;
}

/// CPU time of the calling thread. The ranks share one CPU, so a body's wall
/// time would also count the other ranks that ran while it was preempted.
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The closures the executor runs: the app's own, or wrappers that add
/// every call's CPU time to SharedCounters and, while the solve's spans are
/// kept (g_parent_span >= 0), record its wall interval in the span log.
struct Closures {
  rt::ObjectInit init;
  rt::TaskBody body;
};

std::atomic<std::int64_t> g_parent_span{-1};
std::atomic<std::int64_t> g_op{-1};

Closures closures(const Problem& pr, bool wrapped, SpanLog& log) {
  rt::ObjectInit init = pr.chol ? pr.chol->make_init() : pr.lu->make_init();
  rt::TaskBody body = pr.chol ? pr.chol->make_body() : pr.lu->make_body();
  if (!wrapped) return {std::move(init), std::move(body)};
  const std::int32_t body_name = log.intern("num.body");
  const std::int32_t init_name = log.intern("num.init");
  const std::vector<graph::ProcId>* proc_of = &pr.schedule.proc_of_task;
  return {
      [inner = std::move(init), init_name, &log](graph::DataId d,
                                                 std::span<std::byte> buf) {
        const std::int64_t c0 = thread_cpu_ns();
        const std::int64_t t0 = now_ns();
        inner(d, buf);
        const std::int64_t t1 = now_ns();
        SharedCounters& c = shared_counters();
        c.init_ns.fetch_add(thread_cpu_ns() - c0, std::memory_order_relaxed);
        const std::int64_t parent = g_parent_span.load(std::memory_order_relaxed);
        if (parent >= 0) {
          log.record(init_name, parent, g_op.load(std::memory_order_relaxed), t0, t1);
        }
      },
      [inner = std::move(body), body_name, proc_of, &log](
          graph::TaskId t, rt::ObjectResolver& resolver) {
        const std::int64_t c0 = thread_cpu_ns();
        const std::int64_t t0 = now_ns();
        inner(t, resolver);
        const std::int64_t t1 = now_ns();
        SharedCounters& c = shared_counters();
        c.body_ns[(*proc_of)[static_cast<std::size_t>(t)]].fetch_add(
            thread_cpu_ns() - c0, std::memory_order_relaxed);
        const std::int64_t parent = g_parent_span.load(std::memory_order_relaxed);
        if (parent >= 0) {
          log.record(body_name, parent, g_op.load(std::memory_order_relaxed), t0, t1);
        }
      }};
}

struct Solve {
  double ctor = 0, run = 0, read = 0, dtor = 0;
  double solve_s() const { return ctor + run + dtor; }
  double latency_s() const { return ctor + run + read + dtor; }
  rt::RunReport report;
  double residual = 0.0;
  int conformance_errors = -1;
  std::string conformance_text;
};

Solve solve_once(const Problem& pr, const Closures& cl, SpanLog& log,
                 std::int64_t op, bool traced, bool conform) {
  Solve s;
  rt::ThreadedOptions opts;
  std::unique_ptr<obs::Trace> trace;
  if (traced) {
    obs::TraceConfig tc;
    // The conformance check needs every event: about a dozen per task
    // plus puts and MAPs, so 32 per task leaves room (the run is checked
    // for dropped events below).
    const std::int64_t per_proc = pr.graph().num_tasks() / kProcs + 64;
    tc.events_per_proc = static_cast<std::int32_t>(
        conform ? std::max<std::int64_t>(32 * per_proc, 1 << 16) : 1 << 16);
    trace = std::make_unique<obs::Trace>(kProcs, tc);
    opts.trace = trace.get();
  }
  g_op.store(op);
  const std::int64_t root = log.open(log.intern("bench.solve"), -1, op, now_ns());
  std::int64_t t0 = now_ns();
  std::int64_t id = log.open(log.intern("rt.exec_ctor"), root, op, now_ns());
  g_parent_span.store(id);
  auto exec = std::make_unique<rt::ThreadedExecutor>(*pr.plan, pr.config,
                                                     cl.init, cl.body, opts);
  log.close(id, now_ns());
  std::int64_t t1 = now_ns();
  s.ctor = static_cast<double>(t1 - t0) * 1e-9;
  id = log.open(log.intern("rt.exec_run"), root, op, now_ns());
  g_parent_span.store(id);
  s.report = exec->run();
  log.close(id, now_ns());
  t0 = now_ns();
  s.run = static_cast<double>(t0 - t1) * 1e-9;
  Factor factor;
  if (s.report.executable) {
    id = log.open(log.intern("rt.result_read"), root, op, now_ns());
    factor = read_factor(pr.graph(), *exec);
    log.close(id, now_ns());
  }
  t1 = now_ns();
  s.read = static_cast<double>(t1 - t0) * 1e-9;
  id = log.open(log.intern("rt.exec_dtor"), root, op, now_ns());
  exec.reset();
  log.close(id, now_ns());
  t0 = now_ns();
  s.dtor = static_cast<double>(t0 - t1) * 1e-9;
  log.close(root, now_ns());
  g_parent_span.store(-1);

  s.residual = !s.report.executable ? 1e300
               : pr.chol             ? cholesky_residual(*pr.chol, factor)
                                     : lu_residual(*pr.lu, factor);
  if (conform) {
    verify::ConformanceOptions copts;
    copts.capacity_per_proc = pr.config.capacity_per_proc;
    copts.active_memory = pr.config.active_memory;
    copts.alignment = 8;  // rt::ProcMemory alignment in the threaded executor
    copts.slab_arena = pr.config.slab_arena;
    copts.report = &s.report;
    const verify::AuditReport conf =
        verify::check_conformance(*pr.plan, *trace, copts);
    s.conformance_errors = conf.errors();
    if (!conf.clean()) s.conformance_text = conf.to_string();
    if (s.report.metrics && s.report.metrics->dropped > 0) {
      // A truncated trace only yields warnings; count it as a failed check.
      ++s.conformance_errors;
      s.conformance_text += "trace ring dropped " +
                            std::to_string(s.report.metrics->dropped) + " events";
    }
  }
  return s;
}

/// Checks one solve and counts it.
void check(const Solve& s, const rt::RunReport& oracle, Result& out) {
  if (!s.report.executable) {
    out.count(false, "solve not executable: " + s.report.failure);
    return;
  }
  const std::string mismatch = oracle_mismatch(s.report, oracle);
  const bool ok = s.residual < kResidualLimit && mismatch.empty();
  out.count(ok, !mismatch.empty()
                    ? mismatch
                    : "residual " + std::to_string(s.residual) + " >= 1e-8");
}

/// Replays every processor's MAPs at the run capacity; returns the mean
/// time per perform_map call (µs) and the MAP count per processor.
double map_replay_us(const Problem& pr, std::vector<std::int32_t>& maps) {
  std::int64_t ns = 0, calls = 0;
  maps.assign(kProcs, 0);
  for (graph::ProcId p = 0; p < kProcs; ++p) {
    rt::ProcMemory mem(*pr.plan, p, pr.config.capacity_per_proc, 8,
                       pr.config.alloc_policy, pr.config.slab_arena);
    const auto n = static_cast<std::int32_t>(
        pr.plan->procs[static_cast<std::size_t>(p)].order.size());
    for (std::int32_t pos = 0; pos < n; ++pos) {
      if (!mem.needs_map(pos)) continue;
      const std::int64_t t0 = now_ns();
      mem.perform_map(pos);
      ns += now_ns() - t0;
      ++calls;
      ++maps[static_cast<std::size_t>(p)];
    }
  }
  return calls == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(calls);
}

double max_of(const std::vector<std::int64_t>& v) {
  return v.empty() ? 0.0 : static_cast<double>(*std::max_element(v.begin(), v.end()));
}

}  // namespace

void run_executor_workload(const Args& args, SpanLog& log, Result& out) {
  const bool lu = args.workload == "lu_goodwin";  // otherwise chol_tight
  // Untraced solves record no spans, so span totals describe traced ones.
  SpanLog off(false, 0);
  std::int64_t op = 0;

  // Setups are spread through the run, so they see the same machine as the
  // solves: a few before it (the last instance is the one solved), then one
  // whenever the setups made during the run have taken less than
  // kSetupShare of its elapsed time. Only one extra instance is alive at a
  // time, so the heap does not drift from setup to setup.
  constexpr int kFirstSetups = 3;
  constexpr double kSetupShare = 0.1;
  std::vector<SetupTimes> setups;
  Problem pr;
  for (int i = 0; i < kFirstSetups; ++i) {
    pr = Problem();
    setups.emplace_back();
    pr = setup(lu, args.seed, log, op++, setups.back());
  }
  double run_setup_s = 0;
  auto setup_if_due = [&](std::int64_t t_start) {
    if (run_setup_s >= kSetupShare * seconds_since(t_start)) return;
    SetupTimes t;
    const Problem again = setup(lu, args.seed, log, op++, t);
    if (again.config.capacity_per_proc != pr.config.capacity_per_proc) {
      out.findings.push_back("setup is not deterministic: capacity " +
                             std::to_string(again.config.capacity_per_proc));
    }
    run_setup_s += t.total;
    setups.push_back(t);
  };
  const rt::RunReport oracle = rt::simulate(*pr.plan, pr.config);

  const Closures raw = closures(pr, false, log);
  const Closures wrapped = closures(pr, true, log);
  const double s1_per_proc =
      static_cast<double>(pr.graph().sequential_space()) / kProcs;
  out.note("capacity_per_proc", std::to_string(pr.config.capacity_per_proc));
  out.note("min_mem", std::to_string(pr.min_mem));
  out.note("tot_mem", std::to_string(pr.tot_mem));
  out.note("tasks", std::to_string(pr.graph().num_tasks()));

  auto column = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return v;
  };
  auto pick = [&](double SetupTimes::*field) { return median(column(field)); };
  // Warm-up solve: faults in the code and allocator state once.
  check(solve_once(pr, raw, off, op++, false, false), oracle, out);

  if (!args.trace) {
    std::vector<double> solve_s, latency_ms;
    rt::RunReport last;
    const std::int64_t t_start = now_ns();
    do {
      setup_if_due(t_start);
      Solve s = solve_once(pr, raw, off, op++, false, false);
      check(s, oracle, out);
      solve_s.push_back(s.solve_s());
      latency_ms.push_back(s.latency_s() * 1e3);
      last = std::move(s.report);
    } while (seconds_since(t_start) < args.seconds);
    // Throughput of each group of (up to) kGroup consecutive solves: solves
    // over their summed caller latency (the residual checks between them
    // excluded).
    constexpr std::size_t kGroup = 4;
    std::vector<double> rates;
    for (std::size_t i = 0; i < latency_ms.size(); i += kGroup) {
      const std::size_t end = std::min(latency_ms.size(), i + kGroup);
      if (end - i < kGroup && i > 0) break;  // a short tail joins no group
      double ms = 0;
      for (std::size_t j = i; j < end; ++j) ms += latency_ms[j];
      rates.push_back(static_cast<double>(end - i) * 1e3 / ms);
    }
    add_setup_s(out, column(&SetupTimes::total));
    out.add("rss_peak_mb", rss_peak_mb(), "MB");
    out.add("peak_mem_ratio", max_of(last.peak_bytes_per_proc) / s1_per_proc,
            "ratio");
    add_timings(out, solve_s, latency_ms, rates, "solves");
    return;
  }

  // Traced run: per-layer numbers. Untraced and traced solves alternate so
  // their ratio (the tracing overhead) sees the same machine state.
  std::vector<std::int32_t> replay_maps;
  const double replay_us = map_replay_us(pr, replay_maps);
  if (replay_maps != oracle.maps_per_proc) {
    out.findings.push_back("MAP replay count differs from the simulator");
  }
  const DataPlane dp = calibrate(put_sizes(*pr.plan), 0.1);

  std::vector<double> untraced_s, traced_s, ctor_s, run_s, dtor_s;
  double rec = 0, exe = 0, snd = 0, map = 0, end = 0, parks = 0;
  double put_batches = 0, flags = 0, addr = 0, suspended = 0;
  std::vector<double> busy_per_proc(kProcs, 0.0);
  double busy_total = 0, init_total = 0, protocol_total = 0;
  rt::RunReport last;
  const std::int64_t t_start = now_ns();
  int traced_n = 0;
  while (traced_n < 2 || seconds_since(t_start) < args.seconds) {
    setup_if_due(t_start);
    Solve u = solve_once(pr, raw, off, op++, false, false);
    check(u, oracle, out);
    untraced_s.push_back(u.solve_s());

    // Spans of the first kSpanSolves traced solves are kept; later ones
    // only add to the counters, which bounds the span log.
    shared_counters().reset();
    Solve s = solve_once(pr, wrapped, traced_n < kSpanSolves ? log : off,
                         op++, true, traced_n == 0);
    check(s, oracle, out);
    if (s.conformance_errors > 0) {
      out.findings.push_back("conformance: " + s.conformance_text);
    }
    if (traced_n == 0) {
      out.note("conformance_errors", std::to_string(s.conformance_errors));
    }
    ++traced_n;
    traced_s.push_back(s.solve_s());
    ctor_s.push_back(s.ctor);
    run_s.push_back(s.run);
    dtor_s.push_back(s.dtor);
    SharedCounters& c = shared_counters();
    double busy = 0;
    for (int p = 0; p < kProcs; ++p) {
      const double b = static_cast<double>(c.body_ns[p].load()) * 1e-9;
      busy_per_proc[static_cast<std::size_t>(p)] += b;
      busy += b;
    }
    busy_total += busy;
    init_total += static_cast<double>(c.init_ns.load()) * 1e-9;
    protocol_total += s.run - busy;  // the ranks share one CPU
    if (s.report.metrics) {
      const auto& r = s.report.metrics->state_residency_us;
      rec += r[static_cast<std::size_t>(obs::ProtoState::kRec)] * 1e-6;
      exe += r[static_cast<std::size_t>(obs::ProtoState::kExe)] * 1e-6;
      snd += r[static_cast<std::size_t>(obs::ProtoState::kSnd)] * 1e-6;
      map += r[static_cast<std::size_t>(obs::ProtoState::kMap)] * 1e-6;
      end += r[static_cast<std::size_t>(obs::ProtoState::kEnd)] * 1e-6;
      parks += static_cast<double>(s.report.metrics->parks);
    }
    put_batches += static_cast<double>(s.report.put_batches);
    flags += static_cast<double>(s.report.flag_messages);
    addr += static_cast<double>(s.report.addr_packages);
    suspended += static_cast<double>(s.report.suspended_sends);
    last = std::move(s.report);
  }
  const double n = traced_n;
  const double busy_mean = busy_total / kProcs;
  const double busy_max = *std::max_element(busy_per_proc.begin(), busy_per_proc.end());

  out.add("sparse.matrix_gen_s", pick(&SetupTimes::gen), "s");
  out.add("num.app_build_s", pick(&SetupTimes::build), "s");
  out.add("sched.schedule_s", pick(&SetupTimes::schedule), "s");
  out.add("sched.liveness_s", pick(&SetupTimes::liveness), "s");
  out.add("rt.plan_build_s", pick(&SetupTimes::plan), "s");
  out.add("svc.demand_s", pick(&SetupTimes::demand), "s");
  out.add("num.exe_busy_s", busy_total / n, "s");
  out.add("num.exe_share", busy_total / std::accumulate(run_s.begin(), run_s.end(), 0.0),
          "ratio");
  out.add("num.gflops",
          busy_total > 0 ? pr.graph().total_flops() * n / busy_total / 1e9 : 0.0,
          "GFLOP/s");
  out.add("num.init_s", init_total / n, "s");
  out.add("rt.protocol_s", protocol_total / n, "s");
  out.add("rt.rank_imbalance", busy_mean > 0 ? busy_max / busy_mean : 0.0, "ratio");
  out.add("rt.tasks", static_cast<double>(last.tasks_executed), "count");
  out.add("rt.content_messages", static_cast<double>(last.content_messages), "count");
  out.add("rt.content_bytes", static_cast<double>(last.content_bytes), "bytes");
  out.add("rt.put_batches", put_batches / n, "count");
  out.add("rt.flag_messages", flags / n, "count");
  out.add("rt.addr_packages", addr / n, "count");
  out.add("rt.suspended_sends", suspended / n, "count");
  out.add("mem.map_replay_us", replay_us, "us");
  out.add("mem.maps_per_proc", last.avg_maps(), "count");
  out.add("mem.peak_bytes_max", max_of(last.peak_bytes_per_proc), "bytes");
  out.add("support.crc_gbps", dp.crc_gbps, "GB/s");
  out.add("support.memcpy_gbps", dp.memcpy_gbps, "GB/s");
  out.add("support.crc_bytes", 2.0 * static_cast<double>(last.content_bytes), "bytes");
  out.add("rt.exec_ctor_s", median(ctor_s), "s");
  out.add("rt.exec_run_s", median(run_s), "s");
  out.add("rt.exec_dtor_s", median(dtor_s), "s");
  out.add("obs.rec_s", rec / n, "s");
  out.add("obs.exe_s", exe / n, "s");
  out.add("obs.snd_s", snd / n, "s");
  out.add("obs.map_s", map / n, "s");
  out.add("obs.end_s", end / n, "s");
  out.add("obs.parks", parks / n, "count");
  out.add("obs.trace_overhead", median(traced_s) / median(untraced_s) - 1.0, "ratio");
  out.note("trace_overhead_base", std::to_string(untraced_s.size()) +
                                      " untraced vs " +
                                      std::to_string(traced_s.size()) +
                                      " traced solves, medians");
  out.note("traced_solves", std::to_string(traced_n));
}

}  // namespace perfbench
