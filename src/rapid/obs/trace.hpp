// Per-processor ring-buffer event tracer — the repo's observability
// substrate. One fixed-size ring per processor, written only by that
// processor's rank (single writer, no locks, no allocation on the hot path)
// and read only after the run has joined or reaped its ranks. Every ring,
// header and events alike, lives in one shared anonymous mapping, so a rank
// that is a forked worker process appends to the very ring the coordinator
// reads, stamped against the epoch it inherited: one clock, one trace, on
// both transports. Each append publishes the ring's count with a release
// store after the record's fields, so the record a rank is killed in the
// middle of is never counted (record_at names the one wrapped-ring
// exception). No tracing is a null Trace pointer in the executors.
//
// Event vocabulary follows the paper's execution model: the five protocol
// states REC/EXE/SND/MAP/END (Fig. 3(b)), content puts and their
// publication, address packages, MAP alloc/free with byte deltas, NACK /
// resend recovery traffic, and park/wake scheduling events. The heap
// samples (kHeapSample = arena in-use after each MAP, kHeapPeak = arena
// peak including tentative allocations rolled back inside perform_map)
// reconstruct the paper's per-processor occupancy-vs-S1/p profiles
// (Table 1 / Fig. 7) without asking the arena anything at run end.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "rapid/support/shm.hpp"
#include "rapid/support/stopwatch.hpp"

namespace rapid::obs {

/// The paper's five protocol states (Fig. 3(b)). Distinct from
/// rt::ProcState, which tracks executor-internal scheduling phases.
enum class ProtoState : std::uint8_t {
  kRec = 0,
  kExe = 1,
  kSnd = 2,
  kMap = 3,
  kEnd = 4,
  kCount = 5,
};

const char* to_string(ProtoState s);

/// The 16-bit `d` stamp (TraceEvent::d) carries the put-sequence plane for
/// the conformance checker (verify/conformance.hpp): kPut / kPutPublish /
/// kResend stamp the owner's 1-based per-(object, reader) put sequence,
/// kConsume stamps the sequence the reader's acquire load observed when the
/// gated task became ready, and kNack stamps the sequence the waiter had
/// examined (the request's observed_seq). Stamps are truncated modulo 2^16;
/// 0 means "no sequence observed yet".
enum class EventKind : std::uint8_t {
  kStateEnter = 0,   // a = ProtoState entered
  kTaskBegin = 1,    // a = task id
  kTaskEnd = 2,      // a = task id
  kPut = 3,          // a = object, b = version, c = dest, bytes = size, d = seq
  kPutPublish = 4,   // a = object, b = version, c = dest, bytes = size, d = seq
  kConsume = 5,      // a = object, b = version, c = owner, d = seq (reader)
  kFlagSend = 6,     // a = task, c = dest
  kAddrPkgSend = 7,  // a = entries, b = seq, c = dest
  kAddrPkgInstall = 8,  // a = entries, b = seq, c = reader (receiver side)
  kMapBegin = 9,     // a = schedule position
  kMapAlloc = 10,    // a = object, bytes = object size
  kMapFree = 11,     // a = object, bytes = object size
  kMapEnd = 12,      // a = schedule position
  kHeapSample = 13,  // bytes = arena in-use
  kHeapPeak = 14,    // bytes = arena peak in-use (monotone)
  kNack = 15,        // a = object (or -1 for flag), b = version/task,
                     // c = owner, d = examined seq (content re-requests)
  kResend = 16,      // a = object, b = version, c = dest, bytes = size, d = seq
  kPark = 17,        // a = parks during this wait (blocked-wait park count)
  kCount = 18,
};

const char* to_string(EventKind k);

/// 32-byte binary record. t_ns is relative to the Trace's construction so
/// Chrome-trace timestamps start near zero.
struct TraceEvent {
  std::int64_t t_ns = 0;
  std::int64_t bytes = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  EventKind kind = EventKind::kStateEnter;
  std::uint8_t pad_ = 0;
  /// Put-sequence stamp (see the EventKind table); 0 = none.
  std::uint16_t d = 0;
};

static_assert(sizeof(TraceEvent) == 32, "trace records are 32-byte packed");

struct TraceConfig {
  /// Ring capacity per processor, rounded up to a power of two. When a
  /// ring overflows the oldest events are overwritten and dropped() grows;
  /// exporters handle the truncated prefix gracefully.
  std::int32_t events_per_proc = 1 << 16;
};

class Trace {
 public:
  Trace(int num_procs, TraceConfig config = {});

  int num_procs() const { return num_procs_; }

  /// Owning run id (RunReport::run_id), tagged by the executor before any
  /// worker starts so exporters can attribute every ring record to its
  /// run. 0 = untagged (single-run tools). Multi-tenant service runs each
  /// get their own Trace; the tag is what keeps merged Chrome traces
  /// separable per run.
  void set_run_id(std::int64_t run_id) { run_id_ = run_id; }
  std::int64_t run_id() const { return run_id_; }

  /// Hot path: append one event stamped with the calibrated TSC clock
  /// (now_ns() where no TSC is available). Only the rank that owns `proc`
  /// may call this during a run.
  void record(int proc, EventKind kind, std::int32_t a = 0,
              std::int32_t b = 0, std::int32_t c = 0,
              std::int64_t bytes = 0, std::uint16_t d = 0) {
#ifdef RAPID_TSC_CLOCK
    std::int64_t t = static_cast<std::int64_t>(
        static_cast<double>(__rdtsc() - epoch_tsc_) * ns_per_tick_);
    if (t < 0) t = 0;  // cross-core TSC skew can nudge early events negative
#else
    const std::int64_t t = now_ns() - epoch_ns_;
#endif
    record_at(proc, t, kind, a, b, c, bytes, d);
  }

  /// Append with an explicit (already epoch-relative) timestamp. The
  /// simulator uses this with modeled time.
  void record_at(int proc, std::int64_t t_ns, EventKind kind,
                 std::int32_t a = 0, std::int32_t b = 0, std::int32_t c = 0,
                 std::int64_t bytes = 0, std::uint16_t d = 0) {
    std::atomic_ref<std::int64_t> count(headers_[proc].count);
    const std::int64_t n = count.load(std::memory_order_relaxed);
    TraceEvent& e = ring(proc)[static_cast<std::uint64_t>(n) & mask_];
    e.t_ns = t_ns;
    e.bytes = bytes;
    e.a = a;
    e.b = b;
    e.c = c;
    e.kind = kind;
    e.d = d;
    // Publish after the fields: a reader never counts a half-written
    // record. If the ring has wrapped, a rank killed between the fields and
    // this store leaves its oldest survivor torn between two whole records.
    count.store(n + 1, std::memory_order_release);
  }

  /// Events for one processor, oldest first (post-run only).
  std::vector<TraceEvent> events(int proc) const;

  /// Events recorded for `proc` in total (including overwritten ones).
  std::int64_t recorded(int proc) const {
    return std::atomic_ref<std::int64_t>(headers_[proc].count)
        .load(std::memory_order_acquire);
  }

  /// Events lost to ring overflow for `proc`.
  std::int64_t dropped(int proc) const {
    const std::int64_t n = recorded(proc);
    return n > capacity_ ? n - capacity_ : 0;
  }

  std::int64_t total_events() const;
  std::int64_t total_dropped() const;

 private:
  /// A ring's header, in the mapping with the events so a forked rank's
  /// appends reach the coordinator. One cache line per ring.
  struct alignas(64) RingHeader {
    std::int64_t count;  // records ever appended
  };
  static_assert(std::atomic_ref<std::int64_t>::required_alignment <=
                alignof(std::int64_t));

  TraceEvent* ring(int proc) const {
    return events_ + static_cast<std::int64_t>(proc) * capacity_;
  }

  int num_procs_;
  std::int64_t run_id_ = 0;
#ifdef RAPID_TSC_CLOCK
  std::uint64_t epoch_tsc_ = 0;
  double ns_per_tick_ = 0.0;
#else
  std::int64_t epoch_ns_ = 0;
#endif
  /// Ring capacity per processor: events_per_proc rounded up to a power of
  /// two.
  std::int64_t capacity_ = 0;
  std::uint64_t mask_ = 0;
  /// headers_[num_procs_], then num_procs_ rings of capacity_ events.
  ShmSegment mapping_;
  RingHeader* headers_ = nullptr;
  TraceEvent* events_ = nullptr;
};

}  // namespace rapid::obs
