#include "rapid/support/shm.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <thread>

#include <sys/mman.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid {

namespace {

#if defined(__linux__)
// Raw futex syscall over process-shared (non-PRIVATE) words. glibc exposes
// no wrapper; the two ops we use are WAIT (with relative timeout) and
// WAKE-all.
long futex_call(std::atomic<std::uint32_t>* addr, int op, std::uint32_t val,
                const timespec* timeout) {
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), op, val,
                 timeout, nullptr, 0);
}
#endif

void futex_wait(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                std::int64_t timeout_us) {
#if defined(__linux__)
  timespec ts;
  ts.tv_sec = timeout_us / 1'000'000;
  ts.tv_nsec = (timeout_us % 1'000'000) * 1'000;
  // EAGAIN (word moved), EINTR, and ETIMEDOUT are all fine: the caller
  // re-checks its predicate regardless.
  futex_call(addr, FUTEX_WAIT, expected, &ts);
#else
  // Portable fallback: bounded sleep-poll. Correctness only needs the
  // caller's post-wait re-check; this just costs latency.
  (void)addr;
  (void)expected;
  timespec ts;
  ts.tv_sec = 0;
  ts.tv_nsec = std::min<std::int64_t>(timeout_us, 2000) * 1'000;
  nanosleep(&ts, nullptr);
#endif
}

void futex_wake_all(std::atomic<std::uint32_t>* addr) {
#if defined(__linux__)
  futex_call(addr, FUTEX_WAKE, INT32_MAX, nullptr);
#else
  (void)addr;
#endif
}

}  // namespace

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : data_(other.data_), size_(other.size_), shared_(other.shared_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    close();
    data_ = other.data_;
    size_ = other.size_;
    shared_ = other.shared_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

ShmSegment::~ShmSegment() { close(); }

void ShmSegment::close() {
  if (data_ != nullptr) {
    ::munmap(data_, static_cast<std::size_t>(size_));
    data_ = nullptr;
  }
}

ShmSegment ShmSegment::anonymous(std::int64_t bytes, bool shared) {
  void* p = ::mmap(nullptr, static_cast<std::size_t>(bytes),
                   PROT_READ | PROT_WRITE,
                   (shared ? MAP_SHARED : MAP_PRIVATE) | MAP_ANONYMOUS, -1,
                   0);
  if (p == MAP_FAILED) {
    throw Error(cat("shm: anonymous mmap of ", bytes,
                    " bytes failed: ", std::strerror(errno)));
  }
  ShmSegment seg;
  seg.data_ = static_cast<std::byte*>(p);
  seg.size_ = bytes;
  seg.shared_ = shared;
  return seg;
}

void FutexBell::ring() {
  s_->count.fetch_add(1, std::memory_order_seq_cst);
  s_->word.fetch_add(1, std::memory_order_seq_cst);
  if (s_->sleepers.load(std::memory_order_seq_cst) != 0) {
    futex_wake_all(&s_->word);
  }
}

bool FutexBell::wait(std::uint64_t seen, std::int64_t timeout_us) {
  s_->sleepers.fetch_add(1, std::memory_order_seq_cst);
  std::uint32_t w = s_->word.load(std::memory_order_seq_cst);
  if (s_->count.load(std::memory_order_seq_cst) == seen) {
    // The kernel re-checks word == w under its own lock, so a ring that
    // lands between this load and the sleep wakes us immediately.
    futex_wait(&s_->word, w, timeout_us);
  }
  s_->sleepers.fetch_sub(1, std::memory_order_relaxed);
  return s_->count.load(std::memory_order_acquire) != seen;
}

bool ShmSpinLock::acquire(std::atomic<std::uint32_t>& lock,
                         const std::atomic<std::uint32_t>& abort_flag) {
  for (std::int64_t spins = 0;; ++spins) {
    std::uint32_t expected = 0;
    if (lock.compare_exchange_weak(expected, 1, std::memory_order_acquire,
                                   std::memory_order_relaxed)) {
      return true;
    }
    cpu_relax();
    if ((spins & 63) == 63) {
      // Thread ranks may share a CPU with a preempted holder: let it run.
      std::this_thread::yield();
      if (abort_flag.load(std::memory_order_acquire) != 0) return false;
    }
  }
}

void ShmSpinLock::release(std::atomic<std::uint32_t>& lock) {
  lock.store(0, std::memory_order_release);
}

}  // namespace rapid
