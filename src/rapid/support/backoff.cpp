#include "rapid/support/backoff.hpp"

#include <algorithm>
#include <thread>

#include "rapid/support/shm.hpp"

namespace rapid {

std::int64_t RetryPolicy::delay_us(std::int32_t attempt) const {
  double d = static_cast<double>(base_delay_us);
  for (std::int32_t k = 1; k < attempt; ++k) d *= std::max(1.0, multiplier);
  return static_cast<std::int64_t>(std::min(d, 1e12));
}

std::int64_t RetryPolicy::total_wait_us() const {
  std::int64_t total = 0;
  for (std::int32_t k = 1; k <= max_attempts; ++k) {
    total = sat_add_i64(total, delay_us(k));
    // Every later attempt's delay is >= this one, so once the running sum
    // saturates no further term can change the answer.
    if (total == INT64_MAX) break;
  }
  return total;
}

void Backoff::pause(std::uint64_t seen) {
  if (attempts_ < spin_iters_) {
    if (attempts_ < spin_iters_ / 2) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
    ++attempts_;
    return;
  }
  ++parks_;
  bell_.wait(seen, park_timeout_us_);
}

}  // namespace rapid
