// Per-processor ring-buffer event tracer — the repo's observability
// substrate. One fixed-size ring per processor, written only by that
// processor's worker thread (single writer, no locks, no allocation on the
// hot path) and read only after the run joins its threads, so the
// thread::join() happens-before edge is the only synchronization needed.
// When tracing is disabled the whole record path is one predictable branch.
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

#include <cstdint>
#include <vector>

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
  bool enabled = true;
  /// Ring capacity per processor, rounded up to a power of two. When a
  /// ring overflows the oldest events are overwritten and dropped() grows;
  /// exporters handle the truncated prefix gracefully.
  std::int32_t events_per_proc = 1 << 16;
  /// When >= 0, only this processor's ring is allocated and every other
  /// ring stays empty (and must not be recorded into): a shm worker process
  /// traces just its own rank.
  std::int32_t sole_proc = -1;
};

class Trace {
 public:
  Trace(int num_procs, TraceConfig config = {});

  bool enabled() const { return enabled_; }
  int num_procs() const { return static_cast<int>(rings_.size()); }
  /// Ring capacity per processor: events_per_proc rounded up to a power of
  /// two (0 when disabled).
  std::int64_t capacity() const { return capacity_; }
  std::int64_t epoch_ns() const { return epoch_ns_; }

  /// Owning run id (RunReport::run_id), tagged by the executor before any
  /// worker starts so exporters can attribute every ring record to its
  /// run. 0 = untagged (single-run tools). Multi-tenant service runs each
  /// get their own Trace; the tag is what keeps merged Chrome traces
  /// separable per run.
  void set_run_id(std::int64_t run_id) { run_id_ = run_id; }
  std::int64_t run_id() const { return run_id_; }

  /// Hot path: append one event stamped with the calibrated TSC clock
  /// (now_ns() where no TSC is available). Only the worker thread that owns
  /// `proc` may call this during a run.
  void record(int proc, EventKind kind, std::int32_t a = 0,
              std::int32_t b = 0, std::int32_t c = 0,
              std::int64_t bytes = 0, std::uint16_t d = 0) {
    if (!enabled_) return;
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
    if (!enabled_) return;
    Ring& ring = rings_[static_cast<std::size_t>(proc)];
    TraceEvent& e =
        ring.buf[static_cast<std::size_t>(ring.count) & ring.mask];
    e.t_ns = t_ns;
    e.bytes = bytes;
    e.a = a;
    e.b = b;
    e.c = c;
    e.kind = kind;
    e.d = d;
    ++ring.count;
  }

  /// Events for one processor, oldest first (post-run only).
  std::vector<TraceEvent> events(int proc) const;

  /// Events recorded for `proc` in total (including overwritten ones).
  std::int64_t recorded(int proc) const {
    const Ring& ring = rings_[static_cast<std::size_t>(proc)];
    return ring.count + ring.lost;
  }

  /// Events lost to ring overflow for `proc`.
  std::int64_t dropped(int proc) const;

  /// Counts `events` that `proc` recorded but that never reached this ring
  /// (a merged worker ring's overflow) in recorded() and dropped().
  void note_lost(int proc, std::int64_t events) {
    rings_[static_cast<std::size_t>(proc)].lost += events;
  }

  std::int64_t total_events() const;
  std::int64_t total_dropped() const;

 private:
  struct alignas(64) Ring {
    std::vector<TraceEvent> buf;
    std::uint64_t mask = 0;
    std::int64_t count = 0;
    std::int64_t lost = 0;  // see note_lost
  };

  bool enabled_;
  std::int64_t epoch_ns_;
  std::int64_t run_id_ = 0;
  std::int64_t capacity_ = 0;
#ifdef RAPID_TSC_CLOCK
  std::uint64_t epoch_tsc_ = 0;
  double ns_per_tick_ = 0.0;
#endif
  std::vector<Ring> rings_;
};

}  // namespace rapid::obs
