// The one-sided transport seam of the threaded runtime. Everything the
// executor's data plane does to a peer — put payload bytes at a preknown
// offset, publish (crc, version, put-seq) with release semantics, raise a
// completion flag, deposit an address package or a NACK, ring a doorbell —
// goes through this interface. Two backends implement it:
//
//   * InProcTransport — every paper-processor is a std::thread, windows
//     are slabs in one address space, bells are condvar Doorbells. This is
//     byte-for-byte the pre-transport data plane (same memory orderings,
//     same drain orders, same counters).
//   * ShmTransport (rt/shm_transport.hpp) — every paper-processor is an OS
//     process, windows live in an mmap'd POSIX shm segment, bells are
//     futex-backed, and liveness is a lease in the control segment.
//
// The hot path never pays a virtual call: window(q) hands the executor raw
// pointers into q's RMA window (heap bytes + version/crc/seq/flag arrays),
// and put()/publish()/send_flag() are defined here, once, over those
// views — so the publication-order contract (payload -> crc -> version ->
// seq, Theorem 1) lives in exactly one place. Only coarse, amortized
// operations (mailbox, NACK channel, control plane) are virtual.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rapid/rt/map_engine.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"
#include "rapid/support/backoff.hpp"

namespace rapid::rt {

enum class TransportKind : std::uint8_t {
  kInProc = 0,  ///< threads in one address space (default)
  kShm = 1,     ///< one OS process per paper-processor over POSIX shm
};

const char* to_string(TransportKind k);
/// Parses "inproc" | "shm" (throws rapid::Error otherwise).
TransportKind transport_from_string(const std::string& s);

/// A re-request for a missing message, deposited one-sidedly into the
/// owner's NACK channel by a waiter whose retry deadline expired. POD so
/// the shm backend can store it in a segment ring verbatim.
struct NackRequest {
  ProcId requester = graph::kInvalidProc;
  /// Content re-request: object + minimum version needed. kInvalidData
  /// means this is a flag re-request instead.
  DataId object = graph::kInvalidData;
  std::int32_t version = -1;
  /// Flag re-request: the task whose completion flag is missing.
  TaskId flag_task = graph::kInvalidTask;
  /// Where the requester's copy of the object lives (its preknown
  /// destination address), so the owner can re-put without a lookup.
  mem::Offset reader_offset = mem::kNullOffset;
  /// The put-seq the requester last verified or rejected; the owner only
  /// resends if its own sent-seq differs (idempotence gate).
  std::uint32_t observed_seq = 0;
};
static_assert(std::is_trivially_copyable_v<NackRequest>);

/// Raw pointers into one processor's RMA window. All arrays are indexed by
/// DataId (version/crc/seq) or TaskId (flags); `heap` is the arena the
/// MAP engine hands out offsets into. Both backends expose identical
/// views, so the executor's acquire-loads and readiness checks compile to
/// the same code regardless of where the bytes physically live.
struct WindowView {
  std::byte* heap = nullptr;
  std::atomic<std::int32_t>* received_version = nullptr;
  std::atomic<std::uint32_t>* received_crc = nullptr;
  std::atomic<std::uint32_t>* put_seq = nullptr;
  std::atomic<std::uint8_t>* flags = nullptr;
};

/// One processor's coarse liveness/progress record, readable by the
/// monitor (in-proc) or the coordinator (shm) without cooperation from the
/// processor itself. The wait fields mirror the blocked-state beat_wait()
/// publications; lease_ns is 0 until the first beat and meaningful only on
/// cross-process transports.
struct LightState {
  std::uint8_t state = 0;  // rt::ProcState
  std::int32_t pos = 0;
  std::int64_t lease_ns = 0;
  DataId waiting_object = graph::kInvalidData;
  std::int32_t waiting_version = -1;
  TaskId waiting_flag = graph::kInvalidTask;
  ProcId map_dest = graph::kInvalidProc;
  std::int32_t retry_attempts = 0;
  bool retries_exhausted = false;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  /// True when peers are OS processes (enables lease bookkeeping and the
  /// process-kill fault class).
  virtual bool cross_process() const = 0;

  virtual std::int32_t num_procs() const = 0;

  /// Raw view of processor q's window. Valid for the transport's lifetime;
  /// the executor caches one per rank.
  virtual WindowView window(ProcId q) = 0;

  // -- one-sided data plane (non-virtual: defined once over window()) ----

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
               bool with_crc, std::uint32_t crc, std::uint32_t seq) {
    if (with_crc) dst.received_crc[d].store(crc, std::memory_order_relaxed);
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

  // -- address-package mailbox (coarse; single-slot bounded per src) -----

  /// Deposits `copies` copies of `pkg` into dest's mailbox lane for `from`
  /// iff the lane holds fewer than `slot_bound` packages. Returns whether
  /// the deposit happened (false = mailbox full, caller backs off; the
  /// paper's MAP blocks on exactly this). `copies` > 1 only under the
  /// duplication fault class.
  virtual bool try_send_addr_package(ProcId from, ProcId dest,
                                     const AddrPackage& pkg,
                                     std::int32_t slot_bound,
                                     std::int32_t copies) = 0;
  /// Cheap pending probe (acquire) — the fast-path gate before draining.
  virtual bool addr_packages_pending(ProcId me) const = 0;
  /// Drains every pending package into `out` (append, source-major FIFO)
  /// and clears the pending count.
  virtual void drain_addr_packages(ProcId me, std::vector<AddrPackage>* out) = 0;
  /// Occupancy across all source lanes (diagnostics only).
  virtual std::int64_t mailbox_occupancy(ProcId me) = 0;

  // -- NACK channel (coarse) ---------------------------------------------

  virtual void push_nack(ProcId dest, const NackRequest& n) = 0;
  virtual bool nacks_pending(ProcId me) const = 0;
  virtual void drain_nacks(ProcId me, std::vector<NackRequest>* out) = 0;

  // -- doorbells ---------------------------------------------------------

  /// Data-plane progress bell: rung on every put/flag/package/consumption.
  virtual Bell& data_bell() = 0;
  /// Control bell: quiescence, failure, retry exhaustion.
  virtual Bell& control_bell() = 0;

  // -- run control -------------------------------------------------------

  virtual void request_abort() = 0;
  virtual bool aborted() const = 0;
  /// Marks q quiescent; returns the post-increment count.
  virtual std::int32_t note_quiescent(ProcId q) = 0;
  virtual std::int32_t quiescent_count() const = 0;

  // -- failure capture ---------------------------------------------------

  /// Records a failure raised by processor q (or the monitor/coordinator,
  /// q < 0). The first report fixes the run's disposition kind.
  virtual void report_failure(ProcId q, FailureKind kind,
                              const std::string& text) = 0;
  virtual bool any_failure() const = 0;
  virtual FailureKind first_failure_kind() const = 0;
  /// All failure texts, first-reported first.
  virtual std::vector<std::string> failure_texts() const = 0;
  /// Fail-stop: records the failure, requests the abort, and rings both
  /// bells so parked workers and the monitor observe it.
  void fail_stop(ProcId q, FailureKind kind, const std::string& text) {
    report_failure(q, kind, text);
    request_abort();
    data_bell().ring();
    control_bell().ring();
  }

  // -- liveness / light status ------------------------------------------

  /// Heartbeat: publishes q's protocol state and position (release) and,
  /// on cross-process transports, refreshes q's lease.
  virtual void beat(ProcId q, std::uint8_t state, std::int32_t pos) = 0;
  /// Publishes what q is blocked on, for coordinator-side diagnosis of
  /// peers that can no longer answer snapshot requests. No-op in-proc
  /// (the cooperative snapshot plane covers it).
  virtual void beat_wait(ProcId q, DataId object, std::int32_t version,
                         TaskId flag, ProcId map_dest,
                         std::int32_t retry_attempts, bool exhausted) {
    (void)q; (void)object; (void)version; (void)flag; (void)map_dest;
    (void)retry_attempts; (void)exhausted;
  }
  /// Publishes q's running recovery-traffic totals (NACKs sent, content
  /// resends) so an external sampler can read per-rank health *during* a
  /// run. Cross-process transports mirror these into the control segment;
  /// in-proc runs are observable directly and keep this a no-op.
  virtual void publish_recovery(ProcId q, std::int64_t nacks_sent,
                                std::int64_t resends) {
    (void)q; (void)nacks_sent; (void)resends;
  }
  virtual LightState light(ProcId q) const = 0;
};

/// Builds the in-process backend: per-proc windows sized
/// `heap_bytes_per_proc`, version arrays initialised to -1, everything
/// else zeroed — exactly the pre-transport executor's reset state.
std::unique_ptr<Transport> make_inproc_transport(std::int32_t num_procs,
                                                 std::int64_t num_data,
                                                 std::int64_t num_tasks,
                                                 std::int64_t heap_bytes_per_proc);

}  // namespace rapid::rt
