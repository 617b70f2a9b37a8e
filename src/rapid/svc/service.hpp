// RuntimeService: a long-lived multi-tenant front end over the threaded
// executor. One process hosts a persistent worker pool and a global
// capacity budget; clients submit RunRequests (a workload spec + RunConfig
// + deadline + priority) and get back structured per-run outcomes. The
// service composes the pieces the previous PRs built — symbolic-replay
// admission (svc/admission.hpp), the plan cache (svc/plan_cache.hpp),
// per-run cooperative cancellation (ThreadedOptions::attempt_deadline_us),
// and run-level recovery (rt/recovery.hpp) — into one overload-surviving
// loop:
//
//   submit  -> build/cache plan -> exact byte demand -> admit | queue |
//              reject (structured shortfall) | shed (bounded queue)
//   dispatch-> reserve demand from the budget, backfill by priority,
//              expire lapsed runs before they waste a worker
//   execute -> run_with_recovery on the worker's RunContext (its rank
//              threads and segment mapping outlive runs), per-run fault
//              containment: a fault,
//              checksum storm or dead worker process in one run restarts
//              *that run* only; co-resident runs never pause
//   deadline-> a run still in flight past its deadline is cooperatively
//              cancelled, its arena reclaimed with its executor, and the
//              partial RunReport returned — never a wedged worker
//
// Every submitted run — completed, failed, rejected, shed, or expired —
// ends in a terminal RunRecord carrying its AdmissionReport and (when it
// ran) its RecoveryRun outcome, so overload degrades service throughput,
// never observability.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rapid/obs/telemetry.hpp"
#include "rapid/rt/recovery.hpp"
#include "rapid/rt/run_context.hpp"
#include "rapid/svc/admission.hpp"
#include "rapid/svc/plan_cache.hpp"

namespace rapid::svc {

struct ServiceOptions {
  /// Global capacity budget (bytes) shared by all co-resident runs. Each
  /// admitted run reserves its exact replayed demand for its whole
  /// execution; the sum of reservations never exceeds this.
  std::int64_t budget_bytes = 256ll << 20;
  /// Persistent worker pool size: at most this many runs execute at once.
  /// Each worker keeps one rt::RunContext across its runs (rank threads
  /// and one segment mapping), so the memory retained between runs is at
  /// most `workers` x the largest layout admitted (docs/SERVICE.md).
  std::int32_t workers = 2;
  /// Bounded admission queue. A submit that would exceed this sheds the
  /// queued run with the earliest deadline (possibly the newcomer) —
  /// overload back-pressure instead of unbounded growth.
  std::int32_t queue_limit = 16;
};

struct RunRequest {
  /// Workload spec in the num/shm_workloads.hpp grammar
  /// (cholesky:… | lu:… | trisolve:… | nbody:… | grid:…).
  std::string spec;
  rt::RunConfig config;
  /// Wall-clock budget from submission (µs; 0 = none). A run still queued
  /// past it expires undispatched; a run in flight past it is cooperatively
  /// cancelled and returns its partial report.
  std::int64_t deadline_us = 0;
  /// Higher runs first among those whose demand fits the free budget.
  std::int32_t priority = 0;
  /// Per-run executor knobs (faults, retry policy, transport, tracing…).
  /// The service overrides run_id and attempt_deadline_us.
  rt::ThreadedOptions options;
  /// Per-run restart attempt cap. run_with_recovery returns every failure
  /// structured, so a run never escapes the service as an exception.
  rt::RunRecoveryOptions recovery;
};

enum class RunState : std::uint8_t {
  kQueued,     // admitted or queued, waiting for budget/worker
  kRunning,    // executing
  kCompleted,  // ran to completion (outcome.report is final)
  kFailed,     // exhausted its restart attempts (outcome holds the partial)
  kRejected,   // refused at admission (can never fit / bad spec)
  kShed,       // dropped by the bounded-queue overload policy
  kExpired,    // deadline lapsed — queued (never ran) or mid-run (cancelled
               // cooperatively; outcome.report is the partial)
};

const char* to_string(RunState state);
/// True for every state a run can end in (everything but kQueued/kRunning).
bool is_terminal(RunState state);

/// Everything the service knows about one submitted run. Records are
/// created at submit() and never destroyed before the service; references
/// returned by wait() stay valid.
struct RunRecord {
  std::int64_t run_id = -1;
  std::string spec;
  std::int32_t priority = 0;
  std::int64_t deadline_us = 0;
  RunState state = RunState::kQueued;
  AdmissionReport admission;
  /// Why a terminal state was reached, for states without an outcome
  /// (rejected / shed / queued-expiry).
  std::string reason;

  /// Set for every run that dispatched (kCompleted/kFailed and mid-run
  /// kExpired). The executor inside is released once the residual has been
  /// extracted, so finished runs hold no arena memory and no lease on the
  /// worker's context.
  bool has_outcome = false;
  rt::RecoveryRun outcome;
  /// Workload residual of a completed run (num::App::residual): bit-exact
  /// max-abs-diff for the integer grid app (anything but 0 is a protocol
  /// bug), a relative error for the floating-point apps. -1 before
  /// completion.
  double residual = -1.0;
  /// residual within the app's acceptance threshold: == 0 for an
  /// integer-exact app, < 1e-10 otherwise.
  bool numerics_ok = false;

  /// Microseconds from submit to dispatch and from dispatch to terminal.
  std::int64_t wait_us = 0;
  std::int64_t exec_us = 0;

  JsonValue to_json() const;
};

/// Aggregate service counters, snapshot at any time.
struct ServiceReport {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  std::int64_t expired = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t budget_bytes = 0;
  /// High-water mark of concurrently reserved bytes (<= budget_bytes by
  /// construction — the admission invariant).
  std::int64_t peak_reserved_bytes = 0;
  std::int32_t peak_queue_depth = 0;

  JsonValue to_json() const;
};

class RuntimeService {
 public:
  explicit RuntimeService(ServiceOptions options = {});
  /// Drains the queue and joins the workers.
  ~RuntimeService();

  RuntimeService(const RuntimeService&) = delete;
  RuntimeService& operator=(const RuntimeService&) = delete;

  /// Admits, queues, rejects, or sheds the request; never throws for a bad
  /// request (the record carries the reason). Returns the run id.
  std::int64_t submit(RunRequest request);

  /// Blocks until the run reaches a terminal state and returns its record.
  const RunRecord& wait(std::int64_t run_id);

  /// Waits for every submitted run, in submission order.
  std::vector<const RunRecord*> wait_all();

  ServiceReport report() const;
  const ServiceOptions& options() const { return options_; }

  /// Worker `i`'s run context. Only its worker touches it during a run:
  /// read it while that worker is idle (after wait() of the last run it
  /// took).
  const rt::RunContext& worker_context(std::int32_t i) const;

  /// Registers the service's metric families in `registry` and turns on
  /// inline instrumentation: every state transition that bumps an internal
  /// counter also bumps the matching registry counter, so snapshots
  /// reconcile exactly with report() and with the summed per-run
  /// RunReports (submitted = completed + failed + rejected + shed +
  /// expired once the queue drains). Call once, before traffic; the
  /// registry must outlive the service.
  void bind_telemetry(obs::MetricsRegistry& registry);

  /// Refreshes the instantaneous gauges (queue depth, runs in flight,
  /// reservations vs budget, uptime) and ratchets the plan-cache
  /// counters. The TelemetrySampler probe target; safe from any thread;
  /// no-op when bind_telemetry was never called.
  void sample_telemetry();

 private:
  struct Pending {
    std::int64_t run_id = -1;
    std::shared_ptr<const CachedPlan> plan;
    RunRequest request;
    std::int64_t submit_ns = 0;
    /// Absolute expiry (now_ns() scale); INT64_MAX when no deadline.
    std::int64_t deadline_ns = 0;
  };

  void worker_loop(rt::RunContext& context);
  /// Marks every queued entry whose deadline already lapsed as expired.
  void sweep_expired_locked();
  /// Index of the best dispatchable entry (fits the free budget; highest
  /// priority, then earliest deadline, then FIFO), or -1.
  int pick_locked() const;
  void execute(RunRecord& record, Pending pending, rt::RunContext& context);
  RunRecord& record_of(std::int64_t run_id);

  /// Registry instruments, resolved once at bind_telemetry(). All null
  /// until bound; hot-path sites guard on `bound`.
  struct Telemetry {
    bool bound = false;
    obs::MetricsRegistry* registry = nullptr;
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* recovery_nacks = nullptr;
    obs::Counter* recovery_resends = nullptr;
    obs::Counter* recovery_task_retries = nullptr;
    obs::Counter* recovery_run_attempts = nullptr;
    obs::AtomicHistogram* latency_us = nullptr;
    obs::AtomicHistogram* wait_us = nullptr;
    obs::AtomicHistogram* task_us = nullptr;
    obs::AtomicHistogram* put_bytes = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* in_flight = nullptr;
    obs::Gauge* reserved_bytes = nullptr;
    obs::Gauge* budget_bytes = nullptr;
    obs::Gauge* peak_reserved_bytes = nullptr;
    obs::Gauge* peak_queue_depth = nullptr;
    obs::Gauge* workers = nullptr;
    obs::Gauge* uptime_seconds = nullptr;
  };

  const ServiceOptions options_;
  PlanCache cache_;
  Telemetry tel_;
  std::int64_t start_ns_ = 0;

  mutable std::mutex m_;
  std::condition_variable cv_work_;  // queue/budget changed
  std::condition_variable cv_done_;  // some run reached a terminal state
  std::deque<Pending> queue_;
  std::unordered_map<std::int64_t, std::unique_ptr<RunRecord>> records_;
  std::vector<std::int64_t> submit_order_;
  std::int64_t next_run_id_ = 0;
  std::int64_t reserved_bytes_ = 0;
  std::int64_t peak_reserved_bytes_ = 0;
  std::int32_t peak_queue_depth_ = 0;
  std::int32_t running_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t expired_ = 0;
  bool stopping_ = false;

  /// One per worker; declared before workers_ so they outlive its joins.
  std::vector<std::unique_ptr<rt::RunContext>> contexts_;
  std::vector<std::thread> workers_;
};

}  // namespace rapid::svc
