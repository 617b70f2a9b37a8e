// ThreadedExecutor::Impl — internal to rt/, shared by the translation units
// the executor is split into along its seams:
//
//   data_plane.cpp        put staging/publish, flags, NACK service, RA/CQ,
//                         address packages
//   progress_monitor.cpp the snapshot builder, the one monitor loop for
//                         both transports, deadline/cancel
//   threaded_executor.cpp the per-rank step loop (shared by in-proc threads
//                         and forked shm workers) with its readiness checks
//                         and blocked-wait publication, setup, run_inproc,
//                         the public API
//   shm_coordinator.cpp   run_shm, the forked worker's run, proc-failure
//                         diagnosis
//
// The readiness checks (task_ready, content_trusted) live with the step
// loop, their only caller, which runs them on every poll: the build has no
// LTO, so they are inline functions defined in that one translation unit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "rapid/obs/trace.hpp"
#include "rapid/rt/map_engine.hpp"
#include "rapid/rt/proc_failure.hpp"
#include "rapid/rt/run_context.hpp"
#include "rapid/rt/shm_transport.hpp"
#include "rapid/rt/stall.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/rt/transport.hpp"
#include "rapid/support/backoff.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

/// After this long without data-plane progress the monitor snapshots every
/// processor and builds the wait-for graph (never later than the
/// watchdog). The monitor heartbeat is a quarter of it.
inline constexpr double kStallCheckSeconds = 0.5;
/// Blocked-state backoff: iterations of cheap spinning (cpu_relax, then
/// yield) before a blocked processor parks on the progress bell.
inline constexpr std::int32_t kSpinIters = 64;
/// Park timeout (µs): an explicit bell ring normally ends a park; the
/// timeout bounds how stale a parked thread can go.
/// FaultPlan::force_park_timeout overrides it.
inline constexpr std::int64_t kParkTimeoutUs = 2000;
/// Fill volatile regions freed by a MAP with 0xA5 so use-after-free across
/// heap reuse reads as garbage, not stale content. Debug builds only (it is
/// a memset per freed object).
#ifdef NDEBUG
inline constexpr bool kPoisonFreed = false;
#else
inline constexpr bool kPoisonFreed = true;
#endif

inline void sleep_us(std::int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

struct ThreadedExecutor::Impl {
  const RunPlan& plan;
  const RunConfig config;  // by value: callers often pass temporaries
  ObjectInit init;
  TaskBody body;
  ThreadedOptions options;
  /// Copied out of options so every hook site is one `if (faults_on)`
  /// branch on a const member; enabled() false means zero injected work.
  const FaultPlan faults;
  const bool faults_on;
  /// Induced (non-probabilistic) failures only fire on run attempts within
  /// FaultPlan::induced_fault_runs — run_with_recovery's restarted attempts
  /// then run clean.
  const bool induced_on;
  const bool recovery_on;
  /// Event tracer. Same pattern as faults_on: `tracing` is a const member
  /// so every record site is one predictable branch when tracing is off.
  obs::Trace* const trace;
  const bool tracing;
  const std::int64_t effective_park_us;
  /// Watchdog budget scaled by the retry policy: an in-flight recovery
  /// (bounded by RetryPolicy::total_wait_us per wait) must never be
  /// misdiagnosed as a watchdog-level deadlock. All monitor and retry
  /// deadlines are steady_clock-based (Stopwatch and WaitTracker), so
  /// wall-clock jumps can neither starve nor spuriously fire them.
  const double effective_watchdog;

  /// The wait a processor is blocked in (worker-private); `rec` is what
  /// it publishes into its control slot at every blocked pause. A wait is
  /// its state, position and cause; a changed identity starts a new wait
  /// (the previous one was satisfied — progress, not a retry) and resets
  /// the attempt count. A recovery-enabled REC wait also carries its
  /// re-request deadline, monotonic (now_ns) and growing per the
  /// RetryPolicy.
  struct WaitTracker {
    ProcState state = ProcState::kStart;
    std::int32_t pos = -1;
    WaitRecord rec;
    std::int64_t deadline_ns = 0;
  };

  /// The first unmet gate of a task, as seen by its processor right now.
  struct GateRef {
    DataId object = graph::kInvalidData;
    std::int32_t version = -1;
    TaskId flag_task = graph::kInvalidTask;
    /// The version arrived but its checksum was rejected: the wait is for a
    /// resend, and the first re-request goes out without waiting for the
    /// deadline.
    bool rejected = false;
  };

  /// A put that transmit_batch has staged (payload copied, checksummed,
  /// fault hooks applied) but not yet published. The publication pass
  /// replays these in order.
  struct StagedPut {
    DataId object = graph::kInvalidData;
    std::int32_t version = -1;
    std::int64_t size = 0;
    std::uint32_t crc = 0;
    std::uint32_t attempt = 0;
  };

  /// Per-processor private state, touched only by its own thread. Aligned
  /// so two ranks' counters never share a cache line.
  struct alignas(64) Private {
    /// This rank's memory plan and the next of its MAP steps to apply.
    const ProcMemoryPlan* mem = nullptr;
    std::size_t next_step = 0;
    /// Offset of each live object in this rank's heap, indexed by DataId;
    /// kNullOffset = not live here. Applying a MAP step updates it.
    std::vector<mem::Offset> offsets;
    std::int32_t pos = 0;
    /// This rank's run counters. Worker-private like everything else
    /// here: read only after the worker joined (in-proc) or by the worker
    /// itself when it publishes them (shm).
    CounterBlock ctr{};
    /// Owner-side address table: offset of owned object d inside reader
    /// r's heap, at [owned_index[d] * num_procs + r]; kNullOffset =
    /// unknown. Flat array — the send path does no tree walks.
    std::vector<mem::Offset> known_addrs;
    /// Owner-side put sequence numbers, parallel to known_addrs: how many
    /// puts this owner has issued into (object, reader)'s slot. Single
    /// lifetime window per (object, reader) keeps the slot's address stable,
    /// so the counter spans original puts and resends alike.
    std::vector<std::uint32_t> sent_seq;
    /// Suspended sends grouped by destination, plus per-peer epochs: a
    /// destination's queue is rescanned only when new addresses from that
    /// peer arrived since the last scan (addr_epoch advanced past
    /// scanned_epoch), not on every poll.
    std::vector<std::deque<ContentSend>> suspended_by_dest;
    std::vector<std::uint32_t> addr_epoch;
    std::vector<std::uint32_t> scanned_epoch;
    std::int64_t suspended_count = 0;
    /// Put-coalescing scratch, worker-private: the sends a SND state emits
    /// before routing (send_scratch), the per-destination grouping buckets
    /// (batch_by_dest, cleared after each flush), and the staged-but-not-
    /// yet-published puts of the batch in flight (staged).
    std::vector<ContentSend> send_scratch;
    std::vector<std::vector<ContentSend>> batch_by_dest;
    std::vector<StagedPut> staged;
    std::vector<std::int32_t> epoch_remaining;  // flattened, see epoch_base
    std::vector<std::int32_t> current_version;  // per owned object
    /// Reader-side verification state, per object: the put seq whose
    /// payload last passed (verified) or failed (rejected) its CRC. Gating
    /// recomputation on the seq makes verification race-free against
    /// resends: bytes are only read at a seq the owner has fully published,
    /// and never re-read at a seq already rejected (the owner's next
    /// retransmit bumps the seq past it). Reset when a MAP frees the
    /// object's region.
    std::vector<std::uint32_t> verified_seq;
    std::vector<std::uint32_t> rejected_seq;
    /// A fresh checksum rejection fast-tracks exactly one re-request.
    bool fast_nack = false;
    /// Address-package sequence stamping (per destination) and replay
    /// suppression (per source).
    std::vector<std::uint32_t> pkg_seq_sent;
    std::vector<std::uint32_t> pkg_seq_seen;
    /// The blocked wait and its bounded re-request bookkeeping.
    WaitTracker wait;
    /// END-state bookkeeping (worker-private).
    bool counted_quiescent = false;
    /// Last protocol state recorded to the tracer (change-only recording);
    /// 255 = none yet. Worker-private like everything else here.
    std::uint8_t traced_state = 255;
    std::int64_t addr_pkgs_sent = 0;  // deterministic per-proc ordinal
    /// Process-kill fault bookkeeping: deterministic per-(rank, phase)
    /// entry ordinals (indexed by FaultPlan::kKillRec..kKillMap), and the
    /// last position whose REC entry was counted (REC counts positions,
    /// not poll iterations).
    std::int64_t kill_ordinals[4] = {0, 0, 0, 0};
    std::int32_t last_rec_pos = -1;
  };

  std::vector<Private> priv;
  /// The run's memory plan (memory_plan(), memoized on the RunPlan); every
  /// rank's Private::mem points into it.
  std::shared_ptr<const MemoryPlan> memory;
  std::vector<std::size_t> epoch_base;  // per object, into epoch_remaining
  /// Dense index of each object among its owner's permanents (for the
  /// known_addrs tables); -1 until built.
  std::vector<std::int32_t> owned_index;

  /// The run context this executor leases for its lifetime: the crew that
  /// runs in-proc ranks and the private mapping their transport lives in.
  /// own_ctx is the private context of a standalone executor.
  std::unique_ptr<RunContext> own_ctx;
  RunContext& ctx;
  /// The one-sided transport behind the data plane: windows, mailboxes,
  /// NACK channels, bells, the abort/quiescence/failure control plane,
  /// and the light per-processor status (plus leases, cross-process).
  /// `win` caches the raw window views; `bell`/`control_bell` alias the
  /// transport's bells. In-proc runs point tp into the context's private
  /// mapping; shm runs into the session's transport.
  ShmTransport* tp = nullptr;
  std::vector<WindowView> win;
  FutexBell* bell = nullptr;
  FutexBell* control_bell = nullptr;
  /// Coordinator-side shm session (segment + worker processes); kept on
  /// the Impl so read_object can still reach the owner heaps after run().
  /// Non-null exactly while the monitor supervises worker processes.
  std::unique_ptr<ShmSession> session;

  std::shared_ptr<const StallReport> stall_report;  // set by the monitor
  /// Set by the monitor's shm liveness poll when a worker process died.
  std::shared_ptr<const ProcFailureReport> proc_failure;
  bool completed = false;  // run() finished cleanly; gates read_object()
  RunReport last_report;   // filled by run() even on the throwing paths

  /// Cooperative cancellation. cancel() only sets the flag (it may race
  /// run() setup, so it must not touch the transport); the monitor polls
  /// it every heartbeat and performs the actual abort from the thread that
  /// owns the control-plane pointers.
  std::atomic<bool> cancel_requested{false};
  std::mutex cancel_m;
  std::string cancel_reason;
  /// Wall clock of the current attempt, reset at run() entry; the
  /// attempt_deadline_us budget is measured against it.
  Stopwatch since_run_start;
  /// Reset when the shm workers are spawned: the lease grace period of a
  /// rank that has not beaten yet.
  Stopwatch since_spawn;

  Impl(const RunPlan& plan_, const RunConfig& config_, ObjectInit init_,
       TaskBody body_, ThreadedOptions options_, RunContext* context);
  ~Impl() { ctx.unlease(); }

  void fail(ProcId q, const std::string& what, FailureKind kind) {
    tp->fail_stop(q, kind, what);
  }

  void bump_progress() { bell->ring(); }

  /// Publishes q's light protocol state (and, cross-process, refreshes its
  /// heartbeat lease).
  void set_state(ProcId q, ProcState s) {
    tp->beat(q, static_cast<std::uint8_t>(s), priv[q].pos);
  }

  /// Record entry into one of the paper's five protocol states
  /// (change-only: re-entering the current state records nothing).
  void trace_state(ProcId q, obs::ProtoState s) {
    if (!tracing) return;
    Private& me = priv[q];
    if (me.traced_state == static_cast<std::uint8_t>(s)) return;
    me.traced_state = static_cast<std::uint8_t>(s);
    trace->record(q, obs::EventKind::kStateEnter,
                  static_cast<std::int32_t>(s));
  }

  /// backoff.pause() with park accounting into the trace: one kPark event
  /// per pause that actually parked (spin-only pauses record nothing).
  void traced_pause(ProcId q, Backoff& backoff, std::uint64_t seen) {
    if (!tracing) {
      backoff.pause(seen);
      return;
    }
    const std::int64_t before = backoff.parks();
    backoff.pause(seen);
    const std::int64_t parked = backoff.parks() - before;
    if (parked > 0) {
      trace->record(q, obs::EventKind::kPark,
                    static_cast<std::int32_t>(parked));
    }
  }

  /// Offset of object d in rank q's heap; d must be live there.
  mem::Offset offset_of(ProcId q, DataId d) const {
    const mem::Offset off = priv[q].offsets[d];
    RAPID_CHECK(off != mem::kNullOffset,
                cat("object ", plan.graph->data(d).name,
                    " is not live on processor ", q));
    return off;
  }

  std::size_t slot_index(DataId d, ProcId reader) const {
    return static_cast<std::size_t>(owned_index[d]) *
               static_cast<std::size_t>(plan.num_procs) +
           static_cast<std::size_t>(reader);
  }

  mem::Offset& addr_slot(Private& me, DataId d, ProcId reader) {
    return me.known_addrs[slot_index(d, reader)];
  }

  // ---- data plane (data_plane.cpp) -------------------------------------
  void publish_recovery_counters(ProcId q);
  void transmit_batch(ProcId q, ProcId dest,
                      std::span<const ContentSend> sends);
  void transmit(ProcId q, const ContentSend& s) {
    transmit_batch(q, s.dest, {&s, 1});
  }
  inline void suspend_send(Private& me, const ContentSend& s);
  void dispatch_sends(ProcId q, std::span<const ContentSend> sends);
  void send_flag(ProcId q, ProcId dest, TaskId t) {
    tp->raise_flag(win[dest], t);
    ++priv[q].ctr[kCtrFlagMessages];
    if (tracing) trace->record(q, obs::EventKind::kFlagSend, t, 0, dest);
    bump_progress();
  }
  void send_nack(ProcId q, const GateRef& gate);
  bool service_nack(ProcId q, const NackRequest& n);
  bool note_blocked_wait(ProcId q, const GateRef& gate);
  bool service_ra_cq(ProcId q);
  bool send_addr_package_blocking(ProcId q, ProcId dest,
                                  const AddrPackage& pkg);

  // ---- progress monitor (progress_monitor.cpp) -------------------------
  ProcSnapshot snapshot(ProcId q, std::int64_t now) const;
  StallReport collect_and_diagnose(double stalled_seconds);
  bool some_wait_exhausted() const;
  bool check_cancelled();
  std::int64_t deadline_clamped(std::int64_t heartbeat_us) const;
  void monitor();

  // ---- per-rank step loop and setup (threaded_executor.cpp) ------------
  class Resolver;
  inline bool content_trusted(ProcId q, DataId d, GateRef* gate);
  inline bool task_ready(ProcId q, TaskId t, GateRef* gate = nullptr);
  void publish_wait(ProcId q, ProcState s, const GateRef& gate,
                    ProcId map_dest);
  inline void maybe_kill(ProcId q, std::int32_t phase);
  void complete_task(ProcId q, TaskId t);
  inline void execute_task(ProcId q, TaskId t, Resolver& resolver);
  bool apply_map_step(ProcId q);
  void worker(ProcId q);
  const CounterBlock& finished_counters(ProcId q);
  void reset_run_state();
  void attach_transport(ShmTransport& transport);
  void setup_proc_state(ProcId q);
  void setup_epochs_and_baseline();
  void record_heap_baseline(ProcId q);
  RunReport begin_run();
  bool prepare_ranks(ShmTransport& transport, RunReport& report);
  RunReport finish_run(RunReport report);
  RunReport run_inproc();

  // ---- shm coordinator (shm_coordinator.cpp) ---------------------------
  int run_forked_worker(ProcId q);
  void declare_dead(ProcId dead, const char* detected_by, int sig, int code,
                    double lease_age);
  bool reap_dead_ranks();
  bool lease_lapsed();
  RunReport run_shm();
};

}  // namespace rapid::rt
