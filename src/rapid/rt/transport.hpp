// Vocabulary of the threaded runtime's one-sided transport
// (rt/shm_transport.hpp): the transport kind, the NACK record, the raw
// window view the data plane puts into, and the light per-rank status and
// wait record the monitor reads. There is one transport — one
// offset-based segment layout — and two ways to run it:
//
//   * kInProc — every paper-processor is a crew thread of a RunContext and
//     the segment is the context's private anonymous mapping, kept across
//     runs (rt/run_context.hpp);
//   * kShm — every paper-processor is a forked OS process and the segment
//     is a shared anonymous mapping they all inherit; liveness is a
//     heartbeat lease.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>

#include "rapid/rt/map_engine.hpp"
#include "rapid/rt/plan.hpp"

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
/// the transport stores it in a segment ring verbatim.
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
/// MAP engine hands out offsets into. The executor caches one view per
/// rank, so its acquire-loads and readiness checks are plain loads through
/// raw pointers into the segment.
struct WindowView {
  std::byte* heap = nullptr;
  std::atomic<std::int32_t>* received_version = nullptr;
  std::atomic<std::uint32_t>* received_crc = nullptr;
  std::atomic<std::uint32_t>* put_seq = nullptr;
  std::atomic<std::uint8_t>* flags = nullptr;
};

/// What a blocked processor waits on, published into its control slot at
/// every blocked pause (REC-blocked, MAP-blocked, END-drain) and read by
/// the monitor's stall diagnosis and the shm orphaned-wait report.
struct WaitRecord {
  DataId object = graph::kInvalidData;   // REC: content wait
  std::int32_t version = -1;             // REC: version required
  TaskId flag = graph::kInvalidTask;     // REC: flag wait (object invalid)
  ProcId map_dest = graph::kInvalidProc;  // MAP-blocked: the full mailbox
  std::int32_t retry_attempts = 0;       // re-requests sent for this wait
  bool exhausted = false;                // re-requests ran out
  std::int64_t since_ns = 0;             // now_ns() when the wait began
};

/// One processor's coarse liveness/progress record, readable by the
/// monitor without cooperation from the processor itself: the state and
/// position of its last beat, the wait record of its last blocked pause,
/// and (on a shared segment only — a thread cannot die alone) its
/// heartbeat lease. The wait record is current only while `state` is a
/// blocked state.
struct LightState {
  std::uint8_t state = 0;  // rt::ProcState
  std::int32_t pos = 0;
  std::int64_t lease_ns = 0;
  WaitRecord wait;
};

}  // namespace rapid::rt
