// The per-rank step loop (REC/EXE/SND/MAP/END, paper Figure 3(b)) with its
// readiness checks, shared by the in-proc threads and forked shm workers; the
// per-run setup both backends use; run_inproc; and the public API.
#include "rapid/rt/threaded_executor.hpp"

#include <algorithm>
#include <cstring>
#include <csignal>
#include <utility>

#include "rapid/obs/metrics.hpp"
#include "rapid/rt/executor_impl.hpp"
#include "rapid/support/checksum.hpp"
#include "rapid/support/log.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

using Impl = ThreadedExecutor::Impl;

Impl::Impl(const RunPlan& plan_, const RunConfig& config_, ObjectInit init_,
           TaskBody body_, ThreadedOptions options_, RunContext* context)
    : plan(plan_),
      config(config_),
      init(std::move(init_)),
      body(std::move(body_)),
      options(std::move(options_)),
      faults(options.faults),
      faults_on(options.faults.enabled()),
      induced_on(faults_on &&
                 options.run_attempt <= options.faults.induced_fault_runs),
      recovery_on(options.retry.enabled()),
      trace(options.trace),
      tracing(options.trace != nullptr),
      effective_park_us(faults_on && options.faults.force_park_timeout
                            ? options.faults.forced_park_timeout_us
                            : kParkTimeoutUs),
      effective_watchdog(
          recovery_on
              ? std::max(options.watchdog_seconds,
                         4.0 * static_cast<double>(
                                   options.retry.total_wait_us()) /
                             1e6)
              : options.watchdog_seconds),
      own_ctx(context ? nullptr : std::make_unique<RunContext>()),
      ctx(context ? *context : *own_ctx) {
  ctx.lease();
}

// ---- readiness ---------------------------------------------------------------

/// Reader-side trust in the last put of `d` (readiness already checked):
/// recompute the CRC only at a put sequence not yet verified or rejected.
/// Gating on the seq is what makes verification race-free against owner
/// resends — bytes are only read at a fully published seq, and a NACK for
/// a rejected seq reaches the owner (through the NACK ring lock) strictly
/// after the reader's byte reads, ordering any retransmit's memcpy after
/// them.
inline bool Impl::content_trusted(ProcId q, DataId d, GateRef* gate) {
  Private& me = priv[q];
  const WindowView& mine = win[static_cast<std::size_t>(q)];
  const std::uint32_t seq = mine.put_seq[d].load(std::memory_order_acquire);
  if (seq == 0) return false;  // version visible, seq racing: retry soon
  if (me.verified_seq[d] == seq) return true;
  if (me.rejected_seq[d] == seq) {
    if (gate) gate->rejected = true;
    return false;  // known-bad copy: wait for the resend
  }
  const std::int64_t size = plan.graph->data(d).size_bytes;
  const mem::Offset off = offset_of(q, d);
  const std::uint32_t expect =
      mine.received_crc[d].load(std::memory_order_relaxed);
  const std::uint32_t actual =
      crc32c({mine.heap + off, static_cast<std::size_t>(size)});
  if (actual == expect) {
    me.verified_seq[d] = seq;
    return true;
  }
  me.rejected_seq[d] = seq;
  me.fast_nack = true;  // re-request immediately, not at the deadline
  ++me.ctr[kCtrChecksumRejections];
  if (!recovery_on) {
    fail(q,
         cat("integrity: checksum mismatch on object ",
             plan.graph->data(d).name, " (put seq ", seq,
             ") received at processor ", q),
         FailureKind::kIntegrity);
  }
  if (gate) gate->rejected = true;
  return false;
}

/// Lock-free: acquire loads pair with the senders' release stores, so a
/// `true` result makes the payload bytes (and the flagged predecessors'
/// effects) visible to the task body — and that every remote input's
/// payload digest matched. On false, `gate` (if given) is
/// filled with the first unmet gate for wait tracking and diagnosis.
inline bool Impl::task_ready(ProcId q, TaskId t, GateRef* gate) {
  const TaskRuntimePlan& trp = plan.tasks[t];
  const WindowView& mine = win[static_cast<std::size_t>(q)];
  for (const RemoteRead& rr : trp.remote_reads) {
    const bool arrived =
        mine.received_version[rr.object].load(std::memory_order_acquire) >=
        rr.version;
    if (arrived && content_trusted(q, rr.object, gate)) {
      continue;
    }
    if (gate) {
      gate->object = rr.object;
      gate->version = rr.version;
    }
    return false;
  }
  for (TaskId u : trp.remote_sync_preds) {
    if (mine.flags[u].load(std::memory_order_acquire) == 0) {
      if (gate) gate->flag_task = u;
      return false;
    }
  }
  return true;
}

// ---- blocked-wait publication ----------------------------------------------

/// The one publication of what the stall diagnosis reads, called only where
/// a blocked rank pauses: REC-blocked on `gate`, MAP-blocked on `map_dest`,
/// END-drain. It tracks the wait (a changed identity starts a new one),
/// runs the re-request deadline of a recovery-enabled REC wait, then
/// publishes the suspended-send counts and the wait record with the
/// state. The EXE/SND path stores nothing for the diagnosis.
void Impl::publish_wait(ProcId q, ProcState s, const GateRef& gate,
                        ProcId map_dest) {
  Private& me = priv[q];
  WaitTracker& w = me.wait;
  if (w.state != s || w.pos != me.pos || w.rec.map_dest != map_dest ||
      w.rec.object != gate.object || w.rec.version != gate.version ||
      w.rec.flag != gate.flag_task) {
    const std::int64_t now = now_ns();
    w = WaitTracker{.state = s,
                    .pos = me.pos,
                    .rec = {.object = gate.object,
                            .version = gate.version,
                            .flag = gate.flag_task,
                            .map_dest = map_dest,
                            .since_ns = now}};
    if (recovery_on) {
      w.deadline_ns =
          sat_add_i64(now, sat_mul_i64(options.retry.delay_us(1), 1000));
    }
  }
  const bool exhausted_now = recovery_on && s == ProcState::kRecBlocked &&
                             note_blocked_wait(q, gate);
  for (ProcId r = 0; r < plan.num_procs; ++r) {
    const auto n = static_cast<std::int32_t>(me.suspended_by_dest[r].size());
    tp->set_suspended(q, r, n);
  }
  tp->beat_wait(q, static_cast<std::uint8_t>(s), me.pos, w.rec);
  if (exhausted_now) control_bell->ring();  // the monitor decides
}

// ---- worker ------------------------------------------------------------------

class Impl::Resolver final : public ObjectResolver {
 public:
  Resolver(Impl& impl, ProcId proc) : impl_(impl), proc_(proc) {}

  std::span<const std::byte> read(DataId d) const override {
    const std::int64_t size = impl_.plan.graph->data(d).size_bytes;
    const mem::Offset off = impl_.offset_of(proc_, d);
    return {impl_.win[static_cast<std::size_t>(proc_)].heap + off,
            static_cast<std::size_t>(size)};
  }

  std::span<std::byte> write(DataId d) override {
    RAPID_CHECK(impl_.plan.graph->data(d).owner == proc_,
                cat("task on processor ", proc_, " writing non-owned ",
                    impl_.plan.graph->data(d).name));
    const std::int64_t size = impl_.plan.graph->data(d).size_bytes;
    const mem::Offset off = impl_.offset_of(proc_, d);
    return {impl_.win[static_cast<std::size_t>(proc_)].heap + off,
            static_cast<std::size_t>(size)};
  }

 private:
  Impl& impl_;
  ProcId proc_;
};

/// Process-kill fault hook: rank q SIGKILLs itself at its nth entry into
/// `phase`. Real process death only — in-proc runs ignore the plan (a
/// thread cannot fail independently of the run).
inline void Impl::maybe_kill(ProcId q, std::int32_t phase) {
  Private& me = priv[q];
  const std::int64_t ordinal = ++me.kill_ordinals[phase];
  if (induced_on && tp->cross_process() &&
      faults.should_kill(q, phase, ordinal)) {
    std::raise(SIGKILL);
  }
}

void Impl::complete_task(ProcId q, TaskId t) {
  Private& me = priv[q];
  const TaskRuntimePlan& trp = plan.tasks[t];
  trace_state(q, obs::ProtoState::kSnd);
  for (ProcId dest : trp.flag_dests) send_flag(q, dest, t);
  // Collect every send this SND state produces, then route them together:
  // dispatch_sends coalesces same-destination puts into one batch.
  me.send_scratch.clear();
  for (const auto& [d, v] : trp.epoch_memberships) {
    auto& remaining = me.epoch_remaining[epoch_base[d] +
                                         static_cast<std::size_t>(v) - 1];
    if (--remaining == 0) {
      RAPID_CHECK(me.current_version[d] == v - 1,
                  "versions completed out of order");
      me.current_version[d] = v;
      for (ProcId dest :
           plan.objects[d].sends_by_version[static_cast<std::size_t>(v)]) {
        me.send_scratch.push_back(ContentSend{d, v, dest});
      }
    }
  }
  dispatch_sends(q, me.send_scratch);
  ++me.ctr[kCtrTasksExecuted];
  bump_progress();
}

/// EXE with bounded re-execution: a TransientTaskError (injected or
/// thrown by the body for a genuinely transient condition) is retried up
/// to RetryPolicy::max_attempts times with the policy's backoff. The MAP
/// step's poison fill guarantees a retried body cannot silently read
/// stale heap through a dangling address — a stale read yields poison,
/// not plausible content — and the step has reset the verification state
/// of any recycled input region.
inline void Impl::execute_task(ProcId q, TaskId t,
                               Resolver& resolver) {
  std::int32_t attempt = 1;
  for (;;) {
    try {
      if (faults_on) {
        if (induced_on && t == faults.throw_in_task) {
          throw InjectedFaultError(
              cat("injected fault: task ", plan.graph->task(t).name,
                  " forced to fail"));
        }
        if (induced_on && faults.task_throws_transient(t, attempt)) {
          throw TransientTaskError(
              cat("injected transient fault: task ",
                  plan.graph->task(t).name, " attempt ", attempt));
        }
        const std::int64_t delay = faults.task_delay_us(t);
        if (delay > 0) sleep_us(delay);
      }
      body(t, resolver);  // EXE
      return;
    } catch (const TransientTaskError&) {
      if (!recovery_on || attempt > options.retry.max_attempts ||
          tp->aborted()) {
        throw;
      }
      ++priv[q].ctr[kCtrTaskRetries];
      sleep_us(options.retry.delay_us(attempt));
      ++attempt;
    }
  }
}

/// MAP state: applies rank q's next memory-plan step, the MAP the plan
/// recorded for this position. Frees come first: each freed region is
/// poison-filled (debug builds) so a read through a stale address yields
/// garbage the numeric checks catch, not stale-but-plausible content, and
/// its verification state is reset so a recycled region is never trusted
/// on the strength of a previous lifetime's checksum. The protocol
/// guarantees no put is in flight to a dead region (see docs/RUNTIME.md),
/// so neither can race a sender. Then the placements, the heap samples the
/// occupancy timeline is built from, and the address packages. Returns
/// false when the run aborted during a package send.
bool Impl::apply_map_step(ProcId q) {
  Private& me = priv[q];
  const MapStep& step = me.mem->steps[me.next_step++];
  set_state(q, ProcState::kMap);
  trace_state(q, obs::ProtoState::kMap);
  if (tracing) trace->record(q, obs::EventKind::kMapBegin, me.pos);
  if (faults_on) maybe_kill(q, FaultPlan::kKillMap);
  std::byte* heap = win[static_cast<std::size_t>(q)].heap;
  for (DataId d : step.freed) {
    const std::int64_t size = plan.graph->data(d).size_bytes;
    if (kPoisonFreed && size > 0) {
      std::memset(heap + offset_of(q, d), 0xA5,
                  static_cast<std::size_t>(size));
    }
    me.offsets[d] = mem::kNullOffset;
    me.verified_seq[d] = 0;
    me.rejected_seq[d] = 0;
    if (tracing) {
      trace->record(q, obs::EventKind::kMapFree, d, 0, 0, size);
    }
  }
  for (const auto& [d, off] : step.placed) {
    me.offsets[d] = off;
    if (tracing) {
      trace->record(q, obs::EventKind::kMapAlloc, d, 0, 0,
                    plan.graph->data(d).size_bytes);
    }
  }
  ++me.ctr[kCtrMaps];
  if (tracing) {
    // kHeapPeak carries the replay arena's true peak — tentative
    // allocations it rolled back count, so it can exceed every
    // kHeapSample.
    trace->record(q, obs::EventKind::kMapEnd, me.pos);
    trace->record(q, obs::EventKind::kHeapSample, 0, 0, 0, step.in_use);
    trace->record(q, obs::EventKind::kHeapPeak, 0, 0, 0, step.peak);
  }
  for (const auto& [dest, pkg] : step.packages) {
    if (!send_addr_package_blocking(q, dest, pkg)) return false;
  }
  bump_progress();
  return true;
}

void Impl::worker(ProcId q) {
  Private& me = priv[q];
  set_log_thread_proc(q);
  set_log_thread_run(options.run_id);
  try {
    const ProcPlan& pp = plan.procs[q];
    // Initialize owned objects, then issue version-0 sends (they suspend
    // in active mode until reader addresses arrive).
    Resolver resolver(*this, q);
    for (DataId d : pp.permanents) {
      // A reused mapping holds an earlier run's bytes: without an init,
      // owned objects start zeroed, as on a fresh mapping.
      const std::span<std::byte> buf = resolver.write(d);
      if (init) {
        init(d, buf);
      } else {
        std::memset(buf.data(), 0, buf.size());
      }
    }
    dispatch_sends(q, pp.initial_sends);

    Backoff backoff(*bell, kSpinIters, effective_park_us);
    const auto n = static_cast<std::int32_t>(pp.order.size());
    while (!tp->aborted()) {
      if (me.pos < n) {
        if (me.next_step < me.mem->steps.size() &&
            me.mem->steps[me.next_step].pos == me.pos) {
          if (!apply_map_step(q)) return;
          backoff.reset();
          continue;
        }
        const TaskId t = pp.order[me.pos];
        // The protocol enters REC before every task (Fig. 3(b)); a ready
        // task just passes through it instantly.
        trace_state(q, obs::ProtoState::kRec);
        if (faults_on && me.pos != me.last_rec_pos) {
          // First REC entry at this schedule position (re-entries after a
          // blocked pause are the same protocol state, not a new one).
          me.last_rec_pos = me.pos;
          maybe_kill(q, FaultPlan::kKillRec);
        }
        // Bell value read BEFORE the readiness check: an input that
        // arrives between the check and the park moves the bell past
        // `seen`, so the park returns immediately instead of sleeping
        // through the wakeup.
        const std::uint64_t seen = bell->value();
        GateRef gate;
        if (task_ready(q, t, &gate)) {
          if (tracing) {
            // The task's remote inputs are now all trusted: close the
            // put→publish→consume flows on the reader side. The stamp is
            // a fresh acquire load of the published put sequence — a real
            // release/acquire pair with the owner's publication, so the
            // conformance checker's publish→consume edge is a genuine
            // happens-before edge, not a timestamp heuristic.
            for (const RemoteRead& rr : plan.tasks[t].remote_reads) {
              const std::uint32_t seq =
                  win[static_cast<std::size_t>(q)].put_seq[rr.object].load(
                      std::memory_order_acquire);
              trace->record(q, obs::EventKind::kConsume, rr.object,
                            rr.version,
                            plan.graph->data(rr.object).owner, 0,
                            static_cast<std::uint16_t>(seq));
            }
          }
          set_state(q, ProcState::kExe);
          trace_state(q, obs::ProtoState::kExe);
          if (faults_on) maybe_kill(q, FaultPlan::kKillExe);
          if (tracing) trace->record(q, obs::EventKind::kTaskBegin, t);
          execute_task(q, t, resolver);
          if (tracing) trace->record(q, obs::EventKind::kTaskEnd, t);
          ++me.pos;
          set_state(q, ProcState::kExe);
          if (faults_on) maybe_kill(q, FaultPlan::kKillSnd);
          complete_task(q, t);  // SND
          backoff.reset();
        } else if (service_ra_cq(q)) {  // REC
          backoff.reset();
        } else {
          publish_wait(q, ProcState::kRecBlocked, gate, graph::kInvalidProc);
          traced_pause(q, backoff, seen);
        }
        continue;
      }
      // END: drain, then wait for global quiescence.
      trace_state(q, obs::ProtoState::kEnd);
      const std::uint64_t seen = bell->value();
      const bool progressed = service_ra_cq(q);
      if (!me.counted_quiescent && me.suspended_count == 0) {
        me.counted_quiescent = true;
        set_state(q, ProcState::kQuiescent);
        if (tp->note_quiescent(q) == plan.num_procs) {
          control_bell->ring();  // the run is over: wake the monitor
        }
        bump_progress();  // and any peers parked waiting for quiescence
      }
      if (tp->quiescent_count() == plan.num_procs) {
        return;
      }
      if (progressed) {
        backoff.reset();
      } else {
        if (!me.counted_quiescent) {
          publish_wait(q, ProcState::kEndDrain, GateRef{},
                       graph::kInvalidProc);
        }
        traced_pause(q, backoff, seen);
      }
    }
  } catch (const InjectedFaultError& e) {
    set_state(q, ProcState::kFailed);
    fail(q, cat("processor ", q, ": ", e.what()),
         FailureKind::kInjectedFault);
  } catch (const std::exception& e) {
    set_state(q, ProcState::kFailed);
    fail(q, cat("processor ", q, ": ", e.what()), FailureKind::kTaskError);
  } catch (...) {
    // Nothing may escape into the crew thread (or the forked worker).
    set_state(q, ProcState::kFailed);
    fail(q, cat("processor ", q, ": non-standard exception"),
         FailureKind::kTaskError);
  }
}

/// Rank q's counter block with its end-of-run peak bytes filled in.
const CounterBlock& Impl::finished_counters(ProcId q) {
  Private& me = priv[q];
  if (me.mem == nullptr) {
    me.ctr[kCtrPeakBytes] = 0;
  } else {
    me.ctr[kCtrPeakBytes] = me.next_step == 0
                                ? me.mem->initial_peak
                                : me.mem->steps[me.next_step - 1].peak;
  }
  return me.ctr;
}

// ---- run orchestration -------------------------------------------------------

/// Per-run state reset plus the plan-derived index tables.
void Impl::reset_run_state() {
  completed = false;
  priv.clear();
  priv.resize(static_cast<std::size_t>(plan.num_procs));
  win.clear();
  stall_report.reset();
  proc_failure.reset();
  epoch_base.assign(static_cast<std::size_t>(plan.graph->num_data()), 0);
  owned_index.assign(static_cast<std::size_t>(plan.graph->num_data()), -1);
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    std::int32_t next = 0;
    for (DataId d : plan.procs[q].permanents) owned_index[d] = next++;
  }
}

/// Points the data plane at `transport`: the bells and the cached window
/// views of every rank.
void Impl::attach_transport(ShmTransport& transport) {
  tp = &transport;
  bell = &transport.data_bell();
  control_bell = &transport.control_bell();
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    win.push_back(transport.window(q));
  }
}

/// Rank q's plan-derived private state: its memory plan and offset table
/// (with the initial placements applied) and the owner/reader tables. A
/// forked shm rank inherits it, so the coordinator's offsets are the
/// worker's.
void Impl::setup_proc_state(ProcId q) {
  Private& pr = priv[q];
  pr.mem = &memory->procs[static_cast<std::size_t>(q)];
  pr.offsets.assign(static_cast<std::size_t>(plan.graph->num_data()),
                    mem::kNullOffset);
  for (const auto& [d, off] : pr.mem->initial) pr.offsets[d] = off;
  pr.current_version.assign(
      static_cast<std::size_t>(plan.graph->num_data()), 0);
  pr.known_addrs.assign(plan.procs[q].permanents.size() *
                            static_cast<std::size_t>(plan.num_procs),
                        mem::kNullOffset);
  pr.sent_seq.assign(pr.known_addrs.size(), 0);
  pr.verified_seq.assign(static_cast<std::size_t>(plan.graph->num_data()),
                         0);
  pr.rejected_seq.assign(static_cast<std::size_t>(plan.graph->num_data()),
                         0);
  pr.suspended_by_dest.resize(static_cast<std::size_t>(plan.num_procs));
  pr.batch_by_dest.resize(static_cast<std::size_t>(plan.num_procs));
  pr.addr_epoch.assign(static_cast<std::size_t>(plan.num_procs), 0);
  pr.scanned_epoch.assign(static_cast<std::size_t>(plan.num_procs), 0);
  pr.pkg_seq_sent.assign(static_cast<std::size_t>(plan.num_procs), 0);
  pr.pkg_seq_seen.assign(static_cast<std::size_t>(plan.num_procs), 0);
}

/// Flattened epoch counters (owner-private: every writer of an object
/// runs on its owner) plus the baseline address prefill.
void Impl::setup_epochs_and_baseline() {
  std::size_t total_epochs = 0;
  for (DataId d = 0; d < plan.graph->num_data(); ++d) {
    epoch_base[d] = total_epochs;
    total_epochs += plan.objects[d].epochs.size();
  }
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    priv[q].epoch_remaining.assign(total_epochs, 0);
  }
  for (DataId d = 0; d < plan.graph->num_data(); ++d) {
    const ProcId owner = plan.graph->data(d).owner;
    for (std::size_t v = 0; v < plan.objects[d].epochs.size(); ++v) {
      priv[owner].epoch_remaining[epoch_base[d] + v] =
          static_cast<std::int32_t>(plan.objects[d].epochs[v].size());
    }
  }
  // Baseline: owners learn every reader address before any worker starts.
  if (!config.active_memory) {
    for (ProcId reader = 0; reader < plan.num_procs; ++reader) {
      for (const sched::VolatileLifetime& v :
           plan.procs[reader].volatiles) {
        const ProcId owner = plan.graph->data(v.object).owner;
        addr_slot(priv[owner], v.object, reader) =
            offset_of(reader, v.object);
      }
    }
  }
}

/// Baseline heap samples (permanents, plus preallocated volatiles in
/// baseline mode), recorded before rank q starts so the single-writer ring
/// rule holds via the crew hand-off edge or the fork.
void Impl::record_heap_baseline(ProcId q) {
  trace->record(q, obs::EventKind::kHeapSample, 0, 0, 0,
                priv[q].mem->initial_in_use);
  trace->record(q, obs::EventKind::kHeapPeak, 0, 0, 0,
                priv[q].mem->initial_peak);
}

/// Run prologue shared by both backends: per-run state reset, the trace
/// tag, and the report skeleton every disposition starts from.
RunReport Impl::begin_run() {
  reset_run_state();
  since_run_start.reset();
  set_log_thread_run(options.run_id);
  if (tracing) {
    RAPID_CHECK(trace->num_procs() >= plan.num_procs,
                "the Trace is sized for fewer processors than the plan");
    // Tag the trace with its owning run before any worker writes a
    // record, so multi-tenant Chrome traces split per run.
    if (options.run_id > 0) trace->set_run_id(options.run_id);
  }
  RunReport report;
  report.run_id = options.run_id;
  report.attempt_deadline_us = options.attempt_deadline_us;
  report.transport = to_string(options.transport);
  report.maps_per_proc.assign(static_cast<std::size_t>(plan.num_procs), 0);
  report.peak_bytes_per_proc.assign(static_cast<std::size_t>(plan.num_procs),
                                    0);
  return report;
}

/// The setup both backends run after begin_run and before launching their
/// ranks: fetch the memory plan, attach `transport`, set up every rank's
/// private state, the epoch counters and the baseline prefill, and
/// (tracing) the heap baselines. A capacity the memory plan found
/// non-executable is reported here, before any rank starts, never thrown:
/// it returns false with `report` saying so.
bool Impl::prepare_ranks(ShmTransport& transport, RunReport& report) {
  memory = memory_plan(plan, config);
  if (!memory->executable) {
    report.executable = false;
    report.failure = memory->failure;
    report.failure_kind = FailureKind::kNonExecutable;
    report.errors.push_back(memory->failure);
    last_report = report;
    return false;
  }
  attach_transport(transport);
  for (ProcId q = 0; q < plan.num_procs; ++q) setup_proc_state(q);
  setup_epochs_and_baseline();
  if (tracing) {
    for (ProcId q = 0; q < plan.num_procs; ++q) record_heap_baseline(q);
  }
  return true;
}

/// Run tail shared by both backends: a recorded failure becomes the
/// report's disposition. kNonExecutable is the reported "∞" channel; every
/// other failure throws, carrying the report in last_report().
RunReport Impl::finish_run(RunReport report) {
  if (proc_failure) {
    report.failure_kind = FailureKind::kProcFailure;
    report.failure = proc_failure->summary();
    report.errors = tp->failure_texts();
    report.proc_failure = proc_failure;
  } else if (tp->any_failure()) {
    report.errors = tp->failure_texts();
    report.failure =
        report.errors.empty() ? "unknown failure" : report.errors.front();
    report.failure_kind = tp->first_failure_kind();
    if (report.failure_kind == FailureKind::kNonExecutable) {
      report.executable = false;
    }
  }
  last_report = report;
  switch (report.failure_kind) {
    case FailureKind::kNone:
    case FailureKind::kNonExecutable:
      completed = report.executable;
      return report;
    case FailureKind::kDeadlock:
    case FailureKind::kWatchdog:
    case FailureKind::kRetriesExhausted:
      throw ProtocolDeadlockError(report.failure, stall_report);
    case FailureKind::kProcFailure:
      throw ProcFailureError(report.failure, report.proc_failure);
    case FailureKind::kCancelled:
      throw RunCancelledError(report.failure,
                              std::make_shared<RunReport>(report));
    default:
      throw ExecutionFailedError(report.failure, report.errors);
  }
}

RunReport Impl::run_inproc() {
  RunReport report = begin_run();
  if (!prepare_ranks(ctx.transport_for(ShmTransport::dims_for(plan, config)),
                     report)) {
    return report;
  }

  Stopwatch wall;
  ctx.start(plan.num_procs, [this](ProcId q) { worker(q); });
  monitor();
  ctx.wait();
  // A private context serves no later run worth keeping threads for. Its
  // ranks exit now, as threads of a one-run executor always did, so their
  // thread-local kernel scratch and malloc caches are freed before the
  // caller reads results rather than held until the executor goes.
  if (own_ctx) ctx.stop_crew();
  report.parallel_time_us = wall.seconds() * 1e6;
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    report.add_counters(q, finished_counters(q));
  }
  if (tracing) {
    report.metrics = std::make_shared<obs::MetricsSummary>(
        obs::derive_metrics(*trace));
  }
  return finish_run(std::move(report));
}

ThreadedExecutor::ThreadedExecutor(const RunPlan& plan, const RunConfig& config,
                                   ObjectInit init, TaskBody body,
                                   ThreadedOptions options)
    : impl_(std::make_unique<Impl>(plan, config, std::move(init),
                                   std::move(body), options, nullptr)) {}

ThreadedExecutor::ThreadedExecutor(RunContext& context, const RunPlan& plan,
                                   const RunConfig& config, ObjectInit init,
                                   TaskBody body, ThreadedOptions options)
    : impl_(std::make_unique<Impl>(plan, config, std::move(init),
                                   std::move(body), options, &context)) {}

ThreadedExecutor::~ThreadedExecutor() = default;

RunReport ThreadedExecutor::run() {
  if (impl_->options.transport == TransportKind::kShm) {
    return impl_->run_shm();
  }
  return impl_->run_inproc();
}

std::vector<std::byte> ThreadedExecutor::read_object(DataId d) const {
  const Impl& impl = *impl_;
  RAPID_CHECK(impl.completed,
              "ThreadedExecutor::read_object called before a successful "
              "run() — the owner heaps hold no defined content yet");
  const ProcId owner = impl.plan.graph->data(d).owner;
  const std::int64_t size = impl.plan.graph->data(d).size_bytes;
  const mem::Offset off = impl.offset_of(owner, d);
  const std::byte* base =
      impl.win[static_cast<std::size_t>(owner)].heap + off;
  return std::vector<std::byte>(base, base + size);
}

const RunReport& ThreadedExecutor::last_report() const {
  return impl_->last_report;
}

void ThreadedExecutor::cancel(std::string reason) {
  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.cancel_m);
    impl.cancel_reason = std::move(reason);
  }
  // Release store pairs with the monitor's acquire poll. Only the flag is
  // touched here: the control-plane pointers (bells, transport) are owned
  // by the run() thread and may not even exist yet; the monitor performs
  // the actual abort within one heartbeat.
  impl.cancel_requested.store(true, std::memory_order_release);
}

}  // namespace rapid::rt
