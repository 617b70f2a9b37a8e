// The cross-process transport backend: one OS process per paper-processor,
// every RMA window an mmap'd region of a single named POSIX shm segment,
// doorbells futex-backed, liveness a per-rank heartbeat lease in the
// control block. The layout is strictly offset-based (the segment maps at
// different addresses in every process); docs/TRANSPORT.md diagrams it.
//
//   [ ShmHeader         | magic, dims, run spec, bells, abort, quiescent ]
//   [ ShmRankCtl x p    | lease, state/pos, wait record, error, counters ]
//   [ heap windows x p  | capacity_per_proc bytes each                   ]
//   [ received_version  | p x num_data  atomic<int32>                    ]
//   [ received_crc      | p x num_data  atomic<uint32>                   ]
//   [ put_seq           | p x num_data  atomic<uint32>                   ]
//   [ flags             | p x num_tasks atomic<uint8>                    ]
//   [ mailboxes x p     | per-dest lock + per-src bounded package lanes  ]
//   [ NACK rings x p    | per-dest lock + bounded NackRequest ring       ]
//
// The coordinator (the process that called ThreadedExecutor::run) creates
// the segment, spawns workers (fork by default — the plan and task bodies
// are inherited — or exec of rapid_shm_worker, which rebuilds the workload
// from the spec string in the header), and monitors: waitpid reaping,
// lease lapses, the light status slots, and the global watchdog. Workers
// run the unchanged protocol loop against this transport and _exit with
// kShmWorkerClean / kShmWorkerAborted / kShmWorkerFailed.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "rapid/rt/faults.hpp"
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

/// POD run parameters the coordinator writes into the header so every
/// worker — forked or exec'd — executes under the exact same configuration
/// it planned with.
struct ShmRunSpec {
  /// The coordinator's RunConfig, verbatim (workers force audit off: the
  /// coordinator audited before spawning).
  RunConfig config;
  // The ThreadedOptions the workers' protocol loop reads.
  /// ThreadedOptions::run_id for worker log tags (-1 = standalone run).
  std::int64_t run_id = -1;
  std::uint8_t checksum = 1;
  RetryPolicy retry;
  std::int32_t run_attempt = 1;
  FaultPlan faults;
  double lease_timeout_seconds = 2.0;
  // Tracing: workers trace into rings of the coordinator Trace's capacity
  // and dump them into trace_dir for the coordinator to merge.
  std::uint8_t trace_enabled = 0;
  std::int32_t trace_events_per_proc = 1 << 16;
  char trace_dir[256] = {};
  // Exec mode: the workload spec rapid_shm_worker rebuilds the plan from,
  // and a fingerprint of the coordinator's plan so a divergent rebuild
  // fail-stops instead of corrupting memory.
  char workload_spec[256] = {};
  std::uint64_t plan_fingerprint = 0;
};
static_assert(std::is_trivially_copyable_v<ShmRunSpec>);

/// Cheap fingerprint of a plan's shape (dims + schedule order), enough to
/// catch an exec-mode worker that rebuilt a different plan.
std::uint64_t plan_fingerprint(const RunPlan& plan);

class ShmTransport final : public Transport {
 public:
  struct Dims {
    std::int32_t num_procs = 0;
    std::int64_t num_data = 0;
    std::int64_t num_tasks = 0;
    std::int64_t heap_bytes = 0;  // per rank (capacity_per_proc)
  };

  /// Coordinator side: creates + initializes the segment. local rank -1.
  static std::unique_ptr<ShmTransport> create(const std::string& name,
                                              const Dims& dims,
                                              const ShmRunSpec& spec);
  /// Worker side (exec mode): maps an existing segment as `rank`.
  static std::unique_ptr<ShmTransport> attach(const std::string& name,
                                              ProcId rank);
  ~ShmTransport() override;

  /// Fork-mode children inherit the coordinator's mapping and just switch
  /// identity.
  void set_local_rank(ProcId q) { rank_ = q; }
  ProcId local_rank() const { return rank_; }

  const std::string& segment_name() const;
  const ShmRunSpec& spec() const;
  Dims dims() const;

  // Transport interface --------------------------------------------------
  TransportKind kind() const override { return TransportKind::kShm; }
  bool cross_process() const override { return true; }
  std::int32_t num_procs() const override;
  WindowView window(ProcId q) override;
  bool try_send_addr_package(ProcId from, ProcId dest, const AddrPackage& pkg,
                             std::int32_t slot_bound,
                             std::int32_t copies) override;
  bool addr_packages_pending(ProcId me) const override;
  void drain_addr_packages(ProcId me, std::vector<AddrPackage>* out) override;
  std::int64_t mailbox_occupancy(ProcId me) override;
  void push_nack(ProcId dest, const NackRequest& n) override;
  bool nacks_pending(ProcId me) const override;
  void drain_nacks(ProcId me, std::vector<NackRequest>* out) override;
  Bell& data_bell() override;
  Bell& control_bell() override;
  void request_abort() override;
  bool aborted() const override;
  std::int32_t note_quiescent(ProcId q) override;
  std::int32_t quiescent_count() const override;
  void report_failure(ProcId q, FailureKind kind,
                      const std::string& text) override;
  bool any_failure() const override;
  FailureKind first_failure_kind() const override;
  std::vector<std::string> failure_texts() const override;
  void beat(ProcId q, std::uint8_t state, std::int32_t pos) override;
  void beat_wait(ProcId q, DataId object, std::int32_t version, TaskId flag,
                 ProcId map_dest, std::int32_t retry_attempts,
                 bool exhausted) override;
  void publish_recovery(ProcId q, std::int64_t nacks_sent,
                        std::int64_t resends) override;
  LightState light(ProcId q) const override;

  /// Live mid-run recovery totals mirrored by publish_recovery (distinct
  /// from worker_counter, which is valid only after worker_done).
  std::int64_t live_nacks(ProcId q) const;
  std::int64_t live_resends(ProcId q) const;

  // Worker/coordinator extras --------------------------------------------
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
  ShmTransport(ShmSegment seg, ProcId rank);

  ShmSegment seg_;
  ProcId rank_;  // -1 = coordinator
  std::unique_ptr<Layout> l_;
  std::unique_ptr<FutexBell> data_bell_;
  std::unique_ptr<FutexBell> control_bell_;
};

/// Coordinator-side session: the segment plus the worker processes. The
/// destructor is the no-hang guarantee — it SIGKILLs and reaps any child
/// still alive, then unlinks the segment.
class ShmSession {
 public:
  static std::unique_ptr<ShmSession> create(const ShmTransport::Dims& dims,
                                            const ShmRunSpec& spec);
  ~ShmSession();

  ShmTransport& transport() { return *tp_; }

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
  /// Spawns `worker_path --segment=<name> --rank=<q>` per rank.
  void spawn_exec(const std::string& worker_path);

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
  explicit ShmSession(std::unique_ptr<ShmTransport> tp);
  std::unique_ptr<ShmTransport> tp_;
  std::vector<Child> children_;
};

/// Runs one rank's worker protocol loop against an attached/forked shm
/// transport (defined in shm_coordinator.cpp; shared by the fork children
/// and the rapid_shm_worker binary). Returns the worker exit code.
int shm_worker_run(ShmTransport& transport, const RunPlan& plan,
                   const ObjectInit& init, const TaskBody& body);

namespace detail {
/// Global registry of live coordinator-side ShmSessions, maintained by
/// ShmSession's ctor/dtor so the telemetry plane (rt/shm_health.hpp) can
/// sample per-rank heartbeat/recovery health across every active session
/// without owning any of them.
void shm_health_register(ShmSession* session);
void shm_health_unregister(ShmSession* session);
}  // namespace detail

}  // namespace rapid::rt
