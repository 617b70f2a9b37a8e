// The one transport of the threaded runtime. Every RMA window, mailbox,
// NACK ring, bell and control slot lives in one segment with a strictly
// offset-based layout; docs/TRANSPORT.md diagrams it.
//
//   [ ShmHeader         | bells, abort, quiescent, first failure slot    ]
//   [ ShmRankCtl x p+1  | lease, state/pos, wait record, error, counters ]
//   [ suspended         | p x p       atomic<int32>                    ]
//   [ heap windows x p  | capacity_per_proc bytes each                   ]
//   [ received_version  | p x num_data  atomic<int32>                    ]
//   [ received_crc      | p x num_data  atomic<uint32>                   ]
//   [ put_seq           | p x num_data  atomic<uint32>                   ]
//   [ flags             | p x num_tasks atomic<uint8>                    ]
//   [ mailboxes x p     | per-dest lock + per-src bounded package lanes  ]
//   [ NACK rings x p    | per-dest lock + bounded NackRequest ring       ]
//
// In-proc runs (TransportKind::kInProc) build the layout in a private
// anonymous mapping that a RunContext keeps across runs, re-initialized in
// place for each one, and run the ranks as the context's crew threads;
// pages are zero on first touch, so a window costs only the bytes its rank
// actually writes. Shm runs (kShm) build it in a shared anonymous mapping,
// afresh for every run: the coordinator (the process that called
// ThreadedExecutor::run) maps it, forks one worker per rank — each
// inherits the mapping, the plan, the task bodies and the run parameters —
// and monitors: waitpid reaping, lease lapses, and the global watchdog. Workers run the unchanged protocol loop against this
// transport and _exit with kShmWorkerClean / kShmWorkerAborted /
// kShmWorkerFailed. On both mappings every rank publishes its state, its
// wait record and its suspended-send counts into the segment, and the
// monitor builds every stall snapshot from them. Only a shared segment
// stamps heartbeat leases: a thread cannot die alone.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "rapid/rt/threaded_executor.hpp"
#include "rapid/rt/transport.hpp"
#include "rapid/support/shm.hpp"

namespace rapid::rt {

/// Worker-process exit codes (anything else — or a signal — is a process
/// failure the coordinator reports as ProcFailureReport).
inline constexpr int kShmWorkerClean = 0;
/// The worker saw the abort flag (a peer or the coordinator failed first)
/// and unwound cooperatively.
inline constexpr int kShmWorkerAborted = 20;
/// The worker hit its own failure; details are in its error slot.
inline constexpr int kShmWorkerFailed = 30;

class ShmTransport {
 public:
  /// Everything the segment layout is computed from.
  struct Dims {
    std::int32_t num_procs = 0;
    std::int64_t num_data = 0;
    std::int64_t num_tasks = 0;
    std::int64_t heap_bytes = 0;  // per rank (capacity_per_proc)
    /// Logical mailbox bound per (src, dest) lane (RunConfig::mailbox_slots).
    std::int32_t mailbox_slots = 1;
    /// Most entries one address package can carry; sizes the mailbox slots.
    std::int64_t max_pkg_entries = 0;
  };

  /// The dims a run of `plan` under `config` needs. One MAP sends one
  /// package from reader r to owner o, holding at most |volatiles of r
  /// owned by o| entries, so the largest such count bounds every slot.
  static Dims dims_for(const RunPlan& plan, const RunConfig& config);

  /// Bytes of the segment a layout for `dims` occupies.
  static std::int64_t segment_bytes(const Dims& dims);

  /// Maps a fresh segment of segment_bytes(dims) and initializes every
  /// shared object in it. `shared`: a MAP_SHARED mapping that the forked
  /// workers of an shm run inherit. Otherwise a private mapping for an
  /// in-proc run, whose ranks are threads of this process.
  static std::unique_ptr<ShmTransport> create(const Dims& dims, bool shared);
  ~ShmTransport();

  /// Lays out `dims` afresh in this transport's private mapping and
  /// initializes every shared object, exactly as create() does; no rank
  /// may be running. Requires segment_bytes(dims) <= mapped_bytes(). The
  /// heap windows keep the bytes an earlier run left: a run writes every
  /// window byte it reads before it reads it.
  void reinit(const Dims& dims);
  /// Length and base address of the mapping.
  std::int64_t mapped_bytes() const { return seg_.size(); }
  const std::byte* mapping_base() const { return seg_.data(); }

  /// True when peers are OS processes (enables lease bookkeeping and the
  /// process-kill fault class).
  bool cross_process() const { return seg_.shared(); }
  std::int32_t num_procs() const;

  /// Raw view of processor q's window. Valid for the transport's lifetime;
  /// the executor caches one per rank.
  WindowView window(ProcId q);

  // -- one-sided data plane ------------------------------------------------

  /// RMA put: copy `size` bytes into q's heap at `dst_off`. No lock, no
  /// handshake — the plan guarantees the destination range is quiescent.
  void put(const WindowView& dst, mem::Offset dst_off, const std::byte* src,
           std::int64_t size) {
    std::memcpy(dst.heap + dst_off, src, static_cast<std::size_t>(size));
  }

  /// Publication: crc (relaxed) -> received_version (release, max-merge) ->
  /// put_seq (release). Readers gate readiness on the version acquire and
  /// trust on the seq acquire + CRC check; see docs/PROTOCOL.md Theorem 1.
  void publish(const WindowView& dst, DataId d, std::int32_t version,
               std::uint32_t crc, std::uint32_t seq) {
    dst.received_crc[d].store(crc, std::memory_order_relaxed);
    if (dst.received_version[d].load(std::memory_order_relaxed) < version) {
      dst.received_version[d].store(version, std::memory_order_release);
    }
    dst.put_seq[d].store(seq, std::memory_order_release);
  }

  /// Completion-flag raise (release): the reader's acquire load of the
  /// flag synchronizes with every write the completing task made.
  void raise_flag(const WindowView& dst, TaskId t) {
    dst.flags[t].store(1, std::memory_order_release);
  }

  // -- address-package mailbox ---------------------------------------------

  /// Deposits `copies` copies of `pkg` into dest's mailbox lane for `from`
  /// iff the lane holds fewer than `slot_bound` packages. Returns whether
  /// the deposit happened (false = mailbox full, caller backs off; the
  /// paper's MAP blocks on exactly this). `copies` > 1 only under the
  /// duplication fault class.
  bool try_send_addr_package(ProcId from, ProcId dest, const AddrPackage& pkg,
                             std::int32_t slot_bound, std::int32_t copies);
  /// Cheap pending probe (acquire) — the fast-path gate before draining.
  bool addr_packages_pending(ProcId me) const;
  /// Drains every pending package into `out` (append, source-major FIFO)
  /// and clears the pending count.
  void drain_addr_packages(ProcId me, std::vector<AddrPackage>* out);
  /// Occupancy across all source lanes (diagnostics only).
  std::int64_t mailbox_occupancy(ProcId me) const;

  // -- NACK channel --------------------------------------------------------

  void push_nack(ProcId dest, const NackRequest& n);
  bool nacks_pending(ProcId me) const;
  void drain_nacks(ProcId me, std::vector<NackRequest>* out);

  // -- bells ---------------------------------------------------------------

  /// Data-plane progress bell: rung on every put/flag/package/consumption.
  FutexBell& data_bell() { return data_bell_; }
  /// Control bell: quiescence, failure, retry exhaustion.
  FutexBell& control_bell() { return control_bell_; }

  // -- run control ---------------------------------------------------------

  void request_abort();
  bool aborted() const;
  /// Marks q quiescent; returns the post-increment count.
  std::int32_t note_quiescent(ProcId q);
  std::int32_t quiescent_count() const;

  // -- failure capture -----------------------------------------------------

  /// Records a failure raised by processor q, or by the monitor (q < 0).
  /// The first report fixes the run's disposition kind. A rank's text is
  /// cut to its fixed-size control slot; the monitor's text (deadlock,
  /// watchdog, exhaustion, cancel, process failure) stays whole in the
  /// memory of the process that created the segment, the only one that
  /// runs the monitor.
  void report_failure(ProcId q, FailureKind kind, const std::string& text);
  bool any_failure() const;
  FailureKind first_failure_kind() const;
  /// All failure texts, first-reported first.
  std::vector<std::string> failure_texts() const;
  /// Fail-stop: records the failure, requests the abort, and rings both
  /// bells so parked workers and the monitor observe it.
  void fail_stop(ProcId q, FailureKind kind, const std::string& text) {
    report_failure(q, kind, text);
    request_abort();
    data_bell_.ring();
    control_bell_.ring();
  }

  // -- liveness / light status ---------------------------------------------

  /// Heartbeat: publishes q's protocol state and position (release) and,
  /// on a shared segment, refreshes q's lease.
  void beat(ProcId q, std::uint8_t state, std::int32_t pos);
  /// Blocked-pause heartbeat: publishes what q is blocked on, then its
  /// state and position (release, so a reader that sees the blocked state
  /// sees this wait record), and on a shared segment refreshes its lease.
  void beat_wait(ProcId q, std::uint8_t state, std::int32_t pos,
                 const WaitRecord& wait);
  /// Rank q's count of sends suspended towards `dest` (relaxed; the
  /// beat_wait that follows publishes it).
  void set_suspended(ProcId q, ProcId dest, std::int32_t count);
  std::int32_t suspended(ProcId q, ProcId dest) const;
  /// Publishes q's running recovery-traffic totals (NACKs sent, content
  /// resends) so an external sampler can read per-rank health *during* a
  /// run (distinct from worker_counters, which is valid only after
  /// worker_done).
  void publish_recovery(ProcId q, std::int64_t nacks_sent,
                        std::int64_t resends);
  LightState light(ProcId q) const;

  std::int64_t live_nacks(ProcId q) const;
  std::int64_t live_resends(ProcId q) const;

  // -- worker/coordinator extras -------------------------------------------

  /// Worker at clean end: stores its counter block and raises done
  /// (release) so the coordinator's sums are exact.
  void publish_worker_done(ProcId q, const CounterBlock& counters);
  bool worker_done(ProcId q) const;
  /// Rank q's published counter block (valid once worker_done(q)).
  CounterBlock worker_counters(ProcId q) const;
  /// Lease age in seconds (now - last beat); a huge value before the first
  /// beat so "never attached" reads as lapsed once the grace period ends.
  double lease_age_seconds(ProcId q) const;
  /// Per-rank failure details (valid when light/has_error says so).
  bool rank_failed(ProcId q) const;
  FailureKind rank_failure_kind(ProcId q) const;
  std::string rank_failure_text(ProcId q) const;

 private:
  struct Layout;
  ShmTransport(ShmSegment seg, const Dims& dims);
  /// Placement-news every shared object of the current layout.
  void init_objects();

  ShmSegment seg_;
  std::unique_ptr<Layout> l_;
  FutexBell data_bell_;
  FutexBell control_bell_;
  /// The monitor's failure text (control slot num_procs), kept whole in
  /// the creating process. Written once, before that slot's has_error
  /// release store; read after its acquire load.
  std::string monitor_text_;
};

/// Coordinator-side session: the segment plus the worker processes. The
/// destructor is the no-hang guarantee — it SIGKILLs and reaps any child
/// still alive, then unmaps the segment.
class ShmSession {
 public:
  /// `lease_timeout_seconds` is the run's heartbeat lease
  /// (ThreadedOptions::lease_timeout_seconds); the telemetry sampler
  /// judges a rank alive against it.
  static std::unique_ptr<ShmSession> create(const ShmTransport::Dims& dims,
                                            double lease_timeout_seconds);
  ~ShmSession();

  ShmTransport& transport() { return *tp_; }
  double lease_timeout_seconds() const { return lease_timeout_seconds_; }

  struct Child {
    pid_t pid = -1;
    bool exited = false;
    int exit_code = 0;
    int signal = 0;   // nonzero if terminated by a signal
    bool reported = false;  // coordinator already classified this exit
    /// Stopped by a signal (SIGSTOP, SIGTSTP, a debugger) and not yet
    /// continued: a stopped rank cannot beat, whatever state it is in.
    bool stopped = false;
  };

  using WorkerFn = std::function<int(ProcId)>;
  /// Forks one child per rank; each child runs fn(rank) and _exit()s with
  /// its return value. Call before creating any thread in this process.
  void spawn_fork(const WorkerFn& fn);

  /// Non-blocking waitpid sweep; returns true if any child newly exited.
  /// Also tracks stops and continues (Child::stopped).
  bool poll();
  bool all_exited() const;
  Child& child(ProcId q) { return children_[static_cast<std::size_t>(q)]; }
  /// Signals every still-running child.
  void kill_all(int sig);
  /// Polls until every child exited or the timeout lapses.
  bool wait_all(double timeout_seconds);

 private:
  ShmSession(std::unique_ptr<ShmTransport> tp, double lease_timeout_seconds);
  std::unique_ptr<ShmTransport> tp_;
  double lease_timeout_seconds_;
  std::vector<Child> children_;
};

namespace detail {
/// Global registry of live coordinator-side ShmSessions, maintained by
/// ShmSession's ctor/dtor so the telemetry plane (rt/shm_health.hpp) can
/// sample per-rank heartbeat/recovery health across every active session
/// without owning any of them.
void shm_health_register(ShmSession* session);
void shm_health_unregister(ShmSession* session);
}  // namespace detail

}  // namespace rapid::rt
