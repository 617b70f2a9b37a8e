// Adaptive spin-then-park backoff for the threaded runtime. Every protocol
// event (content put, flag, address package, mailbox consumption, task
// completion) rings the transport's progress bell (support/shm.hpp
// FutexBell); blocked states spin briefly and then park on it instead of
// yield-thrashing, which is what keeps runs with num_procs >
// hardware_concurrency from degrading.
#pragma once

#include <atomic>
#include <cstdint>

namespace rapid {

class FutexBell;

/// Busy-wait hint: cheaper than yield(), keeps the core but releases
/// pipeline resources to a hyperthread sibling.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Saturating arithmetic for deadline/budget math derived from retry
/// policies. Callers may configure max_attempts x multiplier products whose
/// exact sum exceeds int64 microseconds (centuries); the budgets derived
/// from them must clamp, not wrap into the past.
inline std::int64_t sat_add_i64(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    return (a > 0) ? INT64_MAX : INT64_MIN;
  }
  return r;
}

inline std::int64_t sat_mul_i64(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    return ((a > 0) == (b > 0)) ? INT64_MAX : INT64_MIN;
  }
  return r;
}

/// Bounded re-request (NACK) schedule for the threaded runtime's recovery
/// layer: a waiter whose per-wait deadline expires re-requests the message
/// it is missing instead of parking forever, with exponentially growing
/// deadlines. max_attempts == 0 disables recovery entirely (the PR 3
/// fail-stop behavior). All deadlines derived from this policy are
/// steady_clock-based — wall-clock jumps can neither starve nor spuriously
/// fire a retry.
struct RetryPolicy {
  /// Re-requests per wait before escalating to ProtocolDeadlockError.
  std::int32_t max_attempts = 0;
  /// Deadline before the first re-request (µs).
  std::int64_t base_delay_us = 2000;
  /// Deadline growth factor per attempt.
  double multiplier = 2.0;

  bool enabled() const { return max_attempts > 0; }

  /// Deadline for attempt k (1-based): base * multiplier^(k-1), µs.
  std::int64_t delay_us(std::int32_t attempt) const;

  /// Sum of every deadline: how long a single wait may stay unsatisfied
  /// before its retries exhaust. The stall monitor scales its watchdog
  /// budget by this so in-flight recovery is never misdiagnosed as a
  /// genuine deadlock. Saturates at INT64_MAX for absurd
  /// max_attempts x multiplier products instead of wrapping negative.
  std::int64_t total_wait_us() const;

  /// Default recovery tuning for tests and the bench --recovery mode.
  static RetryPolicy standard() { return RetryPolicy{4, 1500, 2.0}; }
};

/// Per-blocked-state policy: the first half of the spin budget issues
/// cpu_relax(), the second half yields, and past the budget the caller
/// parks on the bell. reset() after every unit of local progress so a
/// processor that is actively draining work never pays a park.
class Backoff {
 public:
  Backoff(FutexBell& bell, std::int32_t spin_iters,
          std::int64_t park_timeout_us)
      : bell_(bell),
        spin_iters_(spin_iters),
        park_timeout_us_(park_timeout_us) {}

  /// One blocked iteration. `seen` must be a bell value read before
  /// the caller's last (failed) predicate check.
  void pause(std::uint64_t seen);

  void reset() { attempts_ = 0; }

  std::int64_t parks() const { return parks_; }

 private:
  FutexBell& bell_;
  std::int32_t spin_iters_;
  std::int64_t park_timeout_us_;
  std::int32_t attempts_ = 0;
  std::int64_t parks_ = 0;
};

}  // namespace rapid
