// Shared-memory plumbing for the one transport: a segment wrapper (an
// anonymous mapping — MAP_SHARED for ranks that are forked processes,
// MAP_PRIVATE for ranks that are threads), the futex-backed progress bell
// whose state lives inside the segment, and a tiny spinlock that survives a
// SIGKILLed holder by bailing out when the run's abort flag rises.
// Everything here is offset/POD based, so the layout never depends on
// where a mapping sits.
#pragma once

#include <atomic>
#include <cstdint>

#include "rapid/support/backoff.hpp"

namespace rapid {

/// A memory segment holding the transport layout: one anonymous mapping.
/// A shared segment (MAP_SHARED) is inherited by every process the owner
/// forks after mapping it, so plain std::atomic objects placement-new'd
/// into it give real cross-process ordering on every platform we target
/// (all lock-free, address-free atomics). It has no name: nothing outside
/// the process tree can open it, and the kernel frees it when its last
/// process unmaps it or dies. A private segment (MAP_PRIVATE) serves ranks
/// that are threads of one process.
class ShmSegment {
 public:
  ShmSegment() = default;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;
  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ~ShmSegment();

  /// An anonymous mapping of `bytes` bytes, MAP_SHARED when `shared`,
  /// MAP_PRIVATE otherwise. Pages are zero on first touch and only touched
  /// pages count toward RSS. The mapping is charged against the commit
  /// limit (no MAP_NORESERVE), so an absurd size throws rapid::Error here
  /// instead of faulting later.
  static ShmSegment anonymous(std::int64_t bytes, bool shared);

  std::byte* data() const { return data_; }
  /// Mapped length in bytes (0 when unmapped).
  std::int64_t size() const { return size_; }
  /// True for a MAP_SHARED segment that forked children share.
  bool shared() const { return shared_; }

  /// Unmaps early; the destructor is then a no-op.
  void close();

 private:
  std::byte* data_ = nullptr;
  std::int64_t size_ = 0;
  bool shared_ = false;
};

/// Bell state embedded in a segment. `count` is the progress counter (the
/// bell value); `word` is the 32-bit futex cell (a truncated shadow of
/// count — only inequality matters); `sleepers` gates the wake syscall so
/// a ring with nobody parked costs two atomic increments and a load.
struct ShmBellState {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint32_t> word{0};
  std::atomic<std::int32_t> sleepers{0};
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

/// The progress bell: a monotonically increasing event counter over
/// segment-resident state, with a futex to park on. ring() bumps count and
/// word with seq_cst so it cannot reorder against a waiter's
/// (register-sleeper, re-check-count) pair: either the waiter sees the new
/// count and skips the park, or the ring sees the sleeper and wakes it.
/// wait() re-checks the counter after registering as a sleeper and before
/// the kernel wait, so a ring between the caller's predicate check and the
/// park is never lost as long as `seen` was read *before* the predicate
/// (the futex compare re-checks `word` atomically in the kernel; see
/// docs/RUNTIME.md, "Bell handshake"). Works on shared and private
/// mappings alike.
class FutexBell {
 public:
  explicit FutexBell(ShmBellState* s) : s_(s) {}

  std::uint64_t value() const {
    return s_->count.load(std::memory_order_acquire);
  }

  /// Publishes one unit of progress and wakes any sleepers.
  void ring();
  /// Parks until value() != seen, `timeout_us` elapses, or a spurious
  /// wakeup. Callers re-check their own predicate afterwards regardless.
  /// Returns whether the counter moved past `seen` (the wakeup carried
  /// progress) — false means a pure timeout/spurious wakeup, which the
  /// stall diagnostics count separately from productive rings.
  bool wait(std::uint64_t seen, std::int64_t timeout_us);

 private:
  ShmBellState* s_;
};

/// Spinlock over a segment-resident word, used for the (coarse, cold)
/// mailbox and NACK channels. A holder can die by SIGKILL while the lock
/// is taken; acquire() therefore periodically checks the run's abort flag
/// and gives up (returns false) once the coordinator has declared the run
/// dead, so no survivor can wedge on a corpse's lock. There is no
/// ownership recovery — the protocol is fail-stop past that point. The
/// same periodic check yields the CPU, so a thread rank never spins out a
/// time slice behind a preempted holder on its own CPU.
class ShmSpinLock {
 public:
  /// Returns false iff the abort flag rose while spinning.
  static bool acquire(std::atomic<std::uint32_t>& lock,
                      const std::atomic<std::uint32_t>& abort_flag);
  static void release(std::atomic<std::uint32_t>& lock);
};

}  // namespace rapid
