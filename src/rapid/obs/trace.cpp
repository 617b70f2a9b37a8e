#include "rapid/obs/trace.hpp"

#include <algorithm>
#include <new>

#include "rapid/support/check.hpp"

namespace rapid::obs {

const char* to_string(ProtoState s) {
  switch (s) {
    case ProtoState::kRec:
      return "REC";
    case ProtoState::kExe:
      return "EXE";
    case ProtoState::kSnd:
      return "SND";
    case ProtoState::kMap:
      return "MAP";
    case ProtoState::kEnd:
      return "END";
    case ProtoState::kCount:
      break;
  }
  return "?";
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kStateEnter:
      return "state_enter";
    case EventKind::kTaskBegin:
      return "task_begin";
    case EventKind::kTaskEnd:
      return "task_end";
    case EventKind::kPut:
      return "put";
    case EventKind::kPutPublish:
      return "put_publish";
    case EventKind::kConsume:
      return "consume";
    case EventKind::kFlagSend:
      return "flag_send";
    case EventKind::kAddrPkgSend:
      return "addr_pkg_send";
    case EventKind::kAddrPkgInstall:
      return "addr_pkg_install";
    case EventKind::kMapBegin:
      return "map_begin";
    case EventKind::kMapAlloc:
      return "map_alloc";
    case EventKind::kMapFree:
      return "map_free";
    case EventKind::kMapEnd:
      return "map_end";
    case EventKind::kHeapSample:
      return "heap_sample";
    case EventKind::kHeapPeak:
      return "heap_peak";
    case EventKind::kNack:
      return "nack";
    case EventKind::kResend:
      return "resend";
    case EventKind::kPark:
      return "park";
    case EventKind::kCount:
      break;
  }
  return "?";
}

namespace {
std::uint64_t round_up_pow2(std::int64_t n) {
  std::uint64_t cap = 1;
  while (cap < static_cast<std::uint64_t>(n)) cap <<= 1;
  return cap;
}
}  // namespace

Trace::Trace(int num_procs, TraceConfig config)
    : num_procs_(num_procs) {
  RAPID_CHECK(num_procs > 0, "trace needs at least one processor");
#ifdef RAPID_TSC_CLOCK
  // Calibrate here (first Trace in the process pays ~200us) so record()
  // never touches the magic-static guard on the hot path.
  ns_per_tick_ = detail::tsc_calibration().ns_per_tick;
  epoch_tsc_ = __rdtsc();
#else
  epoch_ns_ = now_ns();
#endif
  const std::uint64_t cap =
      round_up_pow2(std::max<std::int32_t>(config.events_per_proc, 64));
  capacity_ = static_cast<std::int64_t>(cap);
  mask_ = cap - 1;
  // Shared, so ranks forked after this point append where the caller
  // reads; in-proc ranks use the same mapping. Pages are zero until first
  // touched, so an unfilled ring costs no memory.
  const std::int64_t header_bytes =
      static_cast<std::int64_t>(sizeof(RingHeader)) * num_procs;
  mapping_ = ShmSegment::anonymous(
      header_bytes + capacity_ * num_procs *
                         static_cast<std::int64_t>(sizeof(TraceEvent)),
      /*shared=*/true);
  headers_ = reinterpret_cast<RingHeader*>(mapping_.data());
  for (int q = 0; q < num_procs; ++q) new (&headers_[q]) RingHeader{0};
  events_ = reinterpret_cast<TraceEvent*>(mapping_.data() + header_bytes);
}

std::vector<TraceEvent> Trace::events(int proc) const {
  const std::int64_t count = recorded(proc);
  const std::int64_t n = std::min(count, capacity_);
  const TraceEvent* buf = ring(proc);
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  // Oldest surviving record sits at count - n (mod capacity).
  for (std::int64_t i = count - n; i < count; ++i) {
    out.push_back(buf[static_cast<std::uint64_t>(i) & mask_]);
  }
  return out;
}

std::int64_t Trace::total_events() const {
  std::int64_t total = 0;
  for (int q = 0; q < num_procs(); ++q) total += recorded(q);
  return total;
}

std::int64_t Trace::total_dropped() const {
  std::int64_t total = 0;
  for (int q = 0; q < num_procs(); ++q) total += dropped(q);
  return total;
}

}  // namespace rapid::obs
