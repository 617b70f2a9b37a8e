#include "rapid/svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "rapid/support/check.hpp"
#include "rapid/support/log.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/support/str.hpp"

namespace rapid::svc {

const char* to_string(RunState state) {
  switch (state) {
    case RunState::kQueued:
      return "queued";
    case RunState::kRunning:
      return "running";
    case RunState::kCompleted:
      return "completed";
    case RunState::kFailed:
      return "failed";
    case RunState::kRejected:
      return "rejected";
    case RunState::kShed:
      return "shed";
    case RunState::kExpired:
      return "expired";
  }
  return "?";
}

bool is_terminal(RunState state) {
  return state != RunState::kQueued && state != RunState::kRunning;
}

JsonValue RunRecord::to_json() const {
  JsonValue doc = JsonValue::object();
  doc["run_id"] = run_id;
  doc["spec"] = spec;
  doc["priority"] = priority;
  doc["deadline_us"] = deadline_us;
  doc["state"] = to_string(state);
  doc["admission"] = admission.to_json();
  if (!reason.empty()) doc["reason"] = reason;
  if (has_outcome) {
    doc["outcome"] = outcome.to_json();
    doc["residual"] = residual;
    doc["numerics_ok"] = numerics_ok;
  }
  doc["wait_us"] = wait_us;
  doc["exec_us"] = exec_us;
  return doc;
}

JsonValue ServiceReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc["submitted"] = submitted;
  doc["completed"] = completed;
  doc["failed"] = failed;
  doc["rejected"] = rejected;
  doc["shed"] = shed;
  doc["expired"] = expired;
  doc["cache_hits"] = cache_hits;
  doc["cache_misses"] = cache_misses;
  doc["budget_bytes"] = budget_bytes;
  doc["peak_reserved_bytes"] = peak_reserved_bytes;
  doc["peak_queue_depth"] = peak_queue_depth;
  return doc;
}

RuntimeService::RuntimeService(ServiceOptions options)
    : options_(std::move(options)) {
  RAPID_CHECK(options_.budget_bytes > 0 && options_.workers >= 1 &&
                  options_.queue_limit >= 1,
              "RuntimeService needs a positive budget, >= 1 worker and a "
              "queue limit >= 1");
  start_ns_ = now_ns();
  contexts_.reserve(static_cast<std::size_t>(options_.workers));
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (std::int32_t i = 0; i < options_.workers; ++i) {
    contexts_.push_back(std::make_unique<rt::RunContext>());
    rt::RunContext* context = contexts_.back().get();
    workers_.emplace_back([this, context] { worker_loop(*context); });
  }
}

RuntimeService::~RuntimeService() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void RuntimeService::bind_telemetry(obs::MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(m_);
  Telemetry t;
  t.registry = &registry;
  t.submitted = &registry.counter("rapid_runs_submitted_total",
                                  "Runs submitted to the service");
  t.completed = &registry.counter(
      "rapid_runs_completed_total", "Runs that executed to completion");
  t.failed = &registry.counter("rapid_runs_failed_total",
                               "Runs that exhausted their restart attempts");
  t.rejected = &registry.counter("rapid_runs_rejected_total",
                                 "Runs refused at admission");
  t.shed = &registry.counter(
      "rapid_runs_shed_total", "Runs dropped by the bounded-queue overload "
                               "policy");
  t.expired = &registry.counter(
      "rapid_runs_expired_total",
      "Runs whose deadline lapsed (queued or cancelled mid-run)");
  t.cache_hits = &registry.counter("rapid_plan_cache_hits_total",
                                   "Plan-cache hits");
  t.cache_misses = &registry.counter("rapid_plan_cache_misses_total",
                                     "Plan-cache misses (plan built)");
  t.recovery_nacks = &registry.counter(
      "rapid_recovery_nacks_total",
      "NACK re-requests across all finished runs");
  t.recovery_resends = &registry.counter(
      "rapid_recovery_resends_total",
      "Content + flag resends across all finished runs");
  t.recovery_task_retries = &registry.counter(
      "rapid_recovery_task_retries_total",
      "Task-level retries across all finished runs");
  t.recovery_run_attempts = &registry.counter(
      "rapid_recovery_run_attempts_total",
      "Run attempts (1 per run + restarts) across all finished runs");
  t.latency_us = &registry.histogram(
      "rapid_run_latency_us",
      "Admission-to-terminal latency of dispatched runs (microseconds)");
  t.wait_us = &registry.histogram(
      "rapid_run_wait_us",
      "Submit-to-dispatch queue wait of dispatched runs (microseconds)");
  t.task_us = &registry.histogram(
      "rapid_task_us",
      "Task durations merged from traced runs (microseconds)");
  t.put_bytes = &registry.histogram(
      "rapid_put_bytes", "Content put sizes merged from traced runs");
  t.queue_depth =
      &registry.gauge("rapid_queue_depth", "Admission queue occupancy");
  t.in_flight =
      &registry.gauge("rapid_runs_in_flight", "Runs currently executing");
  t.reserved_bytes = &registry.gauge(
      "rapid_reserved_bytes",
      "Capacity bytes currently reserved by admitted runs");
  t.budget_bytes =
      &registry.gauge("rapid_budget_bytes", "Global capacity budget");
  t.peak_reserved_bytes = &registry.gauge(
      "rapid_peak_reserved_bytes",
      "High-water mark of concurrently reserved bytes");
  t.peak_queue_depth = &registry.gauge("rapid_peak_queue_depth",
                                       "High-water admission queue depth");
  t.workers = &registry.gauge("rapid_workers", "Worker pool size");
  t.uptime_seconds =
      &registry.gauge("rapid_uptime_seconds", "Service uptime");
  t.bound = true;
  tel_ = t;
  tel_.budget_bytes->set(static_cast<double>(options_.budget_bytes));
  tel_.workers->set(static_cast<double>(options_.workers));
}

void RuntimeService::sample_telemetry() {
  if (!tel_.bound) return;
  {
    std::lock_guard<std::mutex> lock(m_);
    tel_.queue_depth->set(static_cast<double>(queue_.size()));
    tel_.in_flight->set(static_cast<double>(running_));
    tel_.reserved_bytes->set(static_cast<double>(reserved_bytes_));
    tel_.peak_reserved_bytes->set(
        static_cast<double>(peak_reserved_bytes_));
    tel_.peak_queue_depth->set(static_cast<double>(peak_queue_depth_));
  }
  // The cache keeps its own monotone totals; ratchet, don't add.
  tel_.cache_hits->advance_to(cache_.hits());
  tel_.cache_misses->advance_to(cache_.misses());
  tel_.uptime_seconds->set(static_cast<double>(now_ns() - start_ns_) *
                           1e-9);
}

RunRecord& RuntimeService::record_of(std::int64_t run_id) {
  const auto it = records_.find(run_id);
  RAPID_CHECK(it != records_.end(), cat("unknown run id ", run_id));
  return *it->second;
}

std::int64_t RuntimeService::submit(RunRequest request) {
  // The expensive part — building the plan and replaying its demand — runs
  // outside the service lock (the cache has its own).
  std::shared_ptr<const CachedPlan> plan;
  std::string build_error;
  try {
    plan = cache_.get(request.spec, request.config);
  } catch (const Error& e) {
    build_error = e.what();
  }

  std::unique_lock<std::mutex> lock(m_);
  const std::int64_t id = next_run_id_++;
  auto rec = std::make_unique<RunRecord>();
  rec->run_id = id;
  rec->spec = request.spec;
  rec->priority = request.priority;
  rec->deadline_us = request.deadline_us;
  rec->admission.run_id = id;
  rec->admission.spec = request.spec;
  rec->admission.budget_bytes = options_.budget_bytes;
  rec->admission.reserved_bytes = reserved_bytes_;
  RunRecord& record = *rec;
  records_[id] = std::move(rec);
  submit_order_.push_back(id);
  if (tel_.bound) tel_.submitted->add(1);

  const auto reject = [&](std::string reason, std::int64_t shortfall) {
    record.state = RunState::kRejected;
    record.admission.verdict = AdmissionVerdict::kRejected;
    record.admission.shortfall_bytes = shortfall;
    record.admission.queue_depth = static_cast<std::int32_t>(queue_.size());
    record.admission.reason = record.reason = std::move(reason);
    ++rejected_;
    if (tel_.bound) tel_.rejected->add(1);
    cv_done_.notify_all();
  };

  if (!plan) {
    reject(cat("spec did not build: ", build_error), 0);
    return id;
  }
  record.admission.need_bytes = plan->demand.total_bytes;
  if (!plan->demand.executable) {
    reject(cat("non-executable under capacity ",
               request.config.capacity_per_proc, " (Def. 6): ",
               plan->demand.failure),
           0);
    return id;
  }
  if (plan->demand.total_bytes > options_.budget_bytes) {
    reject(cat("needs ", plan->demand.total_bytes,
               " bytes but the whole budget is ", options_.budget_bytes,
               " (short by ",
               plan->demand.total_bytes - options_.budget_bytes, " bytes)"),
           plan->demand.total_bytes - options_.budget_bytes);
    return id;
  }

  Pending pending;
  pending.run_id = id;
  pending.plan = std::move(plan);
  pending.request = std::move(request);
  pending.submit_ns = now_ns();
  pending.deadline_ns =
      pending.request.deadline_us > 0
          ? pending.submit_ns + pending.request.deadline_us * 1000
          : std::numeric_limits<std::int64_t>::max();

  if (static_cast<std::int32_t>(queue_.size()) >= options_.queue_limit) {
    // Overload: the bounded queue is full. Shed the entry with the least
    // chance of meeting its deadline — the earliest absolute deadline,
    // newcomer included (no-deadline entries never shed before dated ones).
    std::size_t victim = queue_.size();  // sentinel: the newcomer
    std::int64_t victim_deadline = pending.deadline_ns;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].deadline_ns < victim_deadline) {
        victim_deadline = queue_[i].deadline_ns;
        victim = i;
      }
    }
    const std::int64_t shed_id =
        victim == queue_.size() ? id : queue_[victim].run_id;
    RunRecord& shed_rec = record_of(shed_id);
    shed_rec.state = RunState::kShed;
    shed_rec.admission.verdict = AdmissionVerdict::kShed;
    shed_rec.admission.reserved_bytes = reserved_bytes_;
    shed_rec.admission.queue_depth =
        static_cast<std::int32_t>(queue_.size());
    shed_rec.admission.reason = shed_rec.reason =
        cat("admission queue full (limit ", options_.queue_limit,
            "); shed as the earliest-deadline entry");
    ++shed_;
    if (tel_.bound) tel_.shed->add(1);
    RAPID_WARN("service: shed run " << shed_id << " (" << shed_rec.spec
                                    << ") under overload");
    if (victim != queue_.size()) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    cv_done_.notify_all();
    if (shed_id == id) return id;
  }

  record.admission.verdict =
      pending.plan->demand.total_bytes <=
              options_.budget_bytes - reserved_bytes_
          ? AdmissionVerdict::kAdmitted
          : AdmissionVerdict::kQueued;
  queue_.push_back(std::move(pending));
  record.admission.queue_depth = static_cast<std::int32_t>(queue_.size());
  peak_queue_depth_ = std::max(peak_queue_depth_,
                               static_cast<std::int32_t>(queue_.size()));
  lock.unlock();
  cv_work_.notify_all();
  return id;
}

void RuntimeService::sweep_expired_locked() {
  const std::int64_t now = now_ns();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline_ns > now) {
      ++it;
      continue;
    }
    RunRecord& record = record_of(it->run_id);
    record.state = RunState::kExpired;
    record.wait_us = (now - it->submit_ns) / 1000;
    record.reason = cat("deadline of ", it->request.deadline_us,
                        " us lapsed while queued (waited ", record.wait_us,
                        " us)");
    ++expired_;
    if (tel_.bound) tel_.expired->add(1);
    it = queue_.erase(it);
    cv_done_.notify_all();
  }
}

int RuntimeService::pick_locked() const {
  const std::int64_t available = options_.budget_bytes - reserved_bytes_;
  int best = -1;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Pending& c = queue_[i];
    if (c.plan->demand.total_bytes > available) continue;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const Pending& b = queue_[static_cast<std::size_t>(best)];
    if (c.request.priority != b.request.priority) {
      if (c.request.priority > b.request.priority) best = static_cast<int>(i);
    } else if (c.deadline_ns != b.deadline_ns) {
      if (c.deadline_ns < b.deadline_ns) best = static_cast<int>(i);
    }  // else FIFO: the earlier index already wins
  }
  return best;
}

const rt::RunContext& RuntimeService::worker_context(std::int32_t i) const {
  RAPID_CHECK(i >= 0 && i < options_.workers, "no such service worker");
  return *contexts_[static_cast<std::size_t>(i)];
}

void RuntimeService::worker_loop(rt::RunContext& context) {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    sweep_expired_locked();
    const int idx = pick_locked();
    if (idx < 0) {
      if (stopping_ && queue_.empty()) return;
      // The wait_for bound doubles as the queued-deadline sweep cadence.
      cv_work_.wait_for(lock, std::chrono::milliseconds(20));
      continue;
    }
    Pending pending = std::move(queue_[static_cast<std::size_t>(idx)]);
    queue_.erase(queue_.begin() + idx);
    RunRecord& record = record_of(pending.run_id);
    const std::int64_t need = pending.plan->demand.total_bytes;
    reserved_bytes_ += need;
    peak_reserved_bytes_ = std::max(peak_reserved_bytes_, reserved_bytes_);
    RAPID_CHECK(reserved_bytes_ <= options_.budget_bytes,
                "admission invariant violated: reservations exceed budget");
    record.state = RunState::kRunning;
    record.wait_us = (now_ns() - pending.submit_ns) / 1000;
    ++running_;
    lock.unlock();

    execute(record, std::move(pending), context);

    lock.lock();
    reserved_bytes_ -= need;
    --running_;
    switch (record.state) {
      case RunState::kCompleted:
        ++completed_;
        if (tel_.bound) tel_.completed->add(1);
        break;
      case RunState::kFailed:
        ++failed_;
        if (tel_.bound) tel_.failed->add(1);
        break;
      case RunState::kExpired:
        ++expired_;
        if (tel_.bound) tel_.expired->add(1);
        break;
      default:
        RAPID_FAIL("execute() left a non-terminal state");
    }
    if (tel_.bound) {
      tel_.wait_us->observe(record.wait_us);
      tel_.latency_us->observe(record.wait_us + record.exec_us);
    }
    cv_work_.notify_all();
    cv_done_.notify_all();
  }
}

void RuntimeService::execute(RunRecord& record, Pending pending,
                             rt::RunContext& context) {
  const RunRequest& req = pending.request;
  Stopwatch exec_timer;
  // The run happens with m_ released, so every record field is staged in
  // locals and committed under the lock at the end: wait()'s predicate and
  // to_json() snapshots read the record whenever cv_done_ stirs.
  RunState state = RunState::kFailed;
  std::string reason;
  bool has_outcome = false;
  rt::RecoveryRun outcome;
  double residual = -1.0;
  bool numerics_ok = false;

  const auto commit = [&] {
    std::lock_guard<std::mutex> lock(m_);
    record.exec_us = exec_timer.nanos() / 1000;
    record.state = state;
    if (!reason.empty()) record.reason = std::move(reason);
    record.has_outcome = has_outcome;
    if (has_outcome) record.outcome = std::move(outcome);
    record.residual = residual;
    record.numerics_ok = numerics_ok;
  };

  std::int64_t remaining_us = 0;  // 0 = no deadline
  if (pending.deadline_ns != std::numeric_limits<std::int64_t>::max()) {
    remaining_us = (pending.deadline_ns - now_ns()) / 1000;
    if (remaining_us <= 0) {
      state = RunState::kExpired;
      reason = cat("deadline of ", req.deadline_us,
                   " us lapsed between pick and dispatch");
      commit();
      return;
    }
  }

  rt::ThreadedOptions options = req.options;
  options.run_id = record.run_id;
  if (remaining_us > 0 &&
      (options.attempt_deadline_us <= 0 ||
       options.attempt_deadline_us > remaining_us)) {
    options.attempt_deadline_us = remaining_us;
  }

  const num::ShmWorkload& workload = *pending.plan->workload;
  try {
    outcome = rt::run_with_recovery(workload.plan, req.config,
                                    workload.make_init(),
                                    workload.make_body(), options,
                                    req.recovery, &context);
    has_outcome = true;
    if (!outcome.failed && outcome.report.executable) {
      residual = workload.residual(*outcome.executor);
      // Integer apps must be bit-exact; floating-point ones are held to
      // the bound the transport tests use.
      numerics_ok = workload.app->integer_exact() ? residual == 0.0
                                                  : residual < 1e-10;
      state = RunState::kCompleted;
    } else if (outcome.failed &&
               outcome.failure_kind == rt::FailureKind::kCancelled) {
      // The cooperative per-run deadline fired mid-flight: the partial
      // report survives, the arena went with the executor.
      state = RunState::kExpired;
      reason = outcome.failure;
    } else {
      state = RunState::kFailed;
      reason = outcome.failed ? outcome.failure : outcome.report.failure;
    }
    if (tel_.bound) {
      // Fold the finished run's RunReport into the live plane: recovery
      // totals as counter deltas (each run's totals are final here, so a
      // snapshot's counters equal the summed per-run reports), and the
      // traced distributions bucket-exactly via the shared bucket rule.
      const rt::RecoveryCounters& rc = outcome.report.recovery;
      tel_.recovery_nacks->add(rc.nacks_sent);
      tel_.recovery_resends->add(rc.resends + rc.flag_resends);
      tel_.recovery_task_retries->add(rc.task_retries);
      tel_.recovery_run_attempts->add(
          std::max<std::int64_t>(rc.run_attempts, 1));
      if (outcome.report.metrics) {
        tel_.task_us->merge(outcome.report.metrics->task_us);
        tel_.put_bytes->merge(outcome.report.metrics->put_bytes);
      }
    }
  } catch (const Error& e) {
    // Infrastructure failure the recovery layer could not structure (e.g. a
    // RAPID_CHECK tripping). Contained to this run.
    state = RunState::kFailed;
    reason = cat("infrastructure error: ", e.what());
  }
  // Whatever happened, drop the executor now: it leases the worker's
  // context, which the next run needs, and records outlive runs.
  outcome.executor.reset();
  commit();
}

const RunRecord& RuntimeService::wait(std::int64_t run_id) {
  std::unique_lock<std::mutex> lock(m_);
  RunRecord& record = record_of(run_id);
  cv_done_.wait(lock, [&] { return is_terminal(record.state); });
  return record;
}

std::vector<const RunRecord*> RuntimeService::wait_all() {
  std::vector<std::int64_t> ids;
  {
    std::lock_guard<std::mutex> lock(m_);
    ids = submit_order_;
  }
  std::vector<const RunRecord*> out;
  out.reserve(ids.size());
  for (const std::int64_t id : ids) out.push_back(&wait(id));
  return out;
}

ServiceReport RuntimeService::report() const {
  ServiceReport r;
  {
    std::lock_guard<std::mutex> lock(m_);
    r.submitted = next_run_id_;
    r.completed = completed_;
    r.failed = failed_;
    r.rejected = rejected_;
    r.shed = shed_;
    r.expired = expired_;
    r.budget_bytes = options_.budget_bytes;
    r.peak_reserved_bytes = peak_reserved_bytes_;
    r.peak_queue_depth = peak_queue_depth_;
  }
  r.cache_hits = cache_.hits();
  r.cache_misses = cache_.misses();
  return r;
}

}  // namespace rapid::svc
