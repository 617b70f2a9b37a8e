#include "rapid/rt/run_context.hpp"

#include <thread>
#include <utility>
#include <vector>

#include "rapid/support/check.hpp"

namespace rapid::rt {

/// The rank threads. Each parks on its own `go` word; start() writes the
/// job, then bumps `go` of every rank it hands work to (release) and wakes
/// it, so only the ranks a run needs wake up. A rank that finished its job
/// decrements `remaining` (acq_rel); wait() acquire-loads it to zero. Both
/// hand-off edges are atomics, which TSan sees; the futex the waits park
/// on is only the sleep, never the synchronization.
class RunContext::Crew {
 public:
  ~Crew() { stop(); }

  /// Ends and joins every rank thread; the next start() spawns afresh.
  void stop() {
    stopping_ = true;
    for (const auto& r : ranks_) {
      r->go.fetch_add(1, std::memory_order_release);
      r->go.notify_one();
    }
    for (const auto& r : ranks_) r->thread.join();
    ranks_.clear();
    stopping_ = false;
  }

  std::int32_t size() const { return static_cast<std::int32_t>(ranks_.size()); }

  void start(std::int32_t n, std::function<void(ProcId)> fn) {
    RAPID_CHECK(remaining_.load(std::memory_order_acquire) == 0,
                "run context: the previous run's ranks are still running");
    while (size() < n) {
      ranks_.push_back(std::make_unique<Rank>());
      Rank* r = ranks_.back().get();
      const ProcId q = size() - 1;
      try {
        r->thread = std::thread([this, r, q] { loop(*r, q); });
      } catch (...) {
        ranks_.pop_back();
        throw;
      }
    }
    job_ = std::move(fn);
    remaining_.store(n, std::memory_order_relaxed);
    for (ProcId q = 0; q < n; ++q) {
      Rank& r = *ranks_[static_cast<std::size_t>(q)];
      r.go.fetch_add(1, std::memory_order_release);
      r.go.notify_one();
    }
  }

  void wait() {
    for (std::int32_t left = remaining_.load(std::memory_order_acquire);
         left != 0; left = remaining_.load(std::memory_order_acquire)) {
      remaining_.wait(left, std::memory_order_acquire);
    }
  }

 private:
  struct alignas(64) Rank {
    /// Hand-off generation: bumped once per job and once to stop.
    std::atomic<std::uint32_t> go{0};
    std::thread thread;
  };

  void loop(Rank& me, ProcId q) {
    for (std::uint32_t seen = 0;;) {
      me.go.wait(seen, std::memory_order_acquire);
      seen = me.go.load(std::memory_order_acquire);
      if (stopping_) return;
      job_(q);
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        remaining_.notify_one();
      }
    }
  }

  /// Written by start() (and stopping_ by the destructor) only while every
  /// rank is parked; read by a rank only after it saw its `go` move.
  std::function<void(ProcId)> job_;
  bool stopping_ = false;
  std::atomic<std::int32_t> remaining_{0};
  /// Last: the threads use every member above.
  std::vector<std::unique_ptr<Rank>> ranks_;
};

RunContext::RunContext() : crew_(std::make_unique<Crew>()) {}

RunContext::~RunContext() = default;

std::int64_t RunContext::mapped_bytes() const {
  return tp_ ? tp_->mapped_bytes() : 0;
}

const std::byte* RunContext::mapping_base() const {
  return tp_ ? tp_->mapping_base() : nullptr;
}

std::int32_t RunContext::crew_size() const { return crew_->size(); }

void RunContext::lease() {
  RAPID_CHECK(!leased_.exchange(true, std::memory_order_acq_rel),
              "run context already leased by another executor");
}

void RunContext::unlease() { leased_.store(false, std::memory_order_release); }

ShmTransport& RunContext::transport_for(const ShmTransport::Dims& dims) {
  if (tp_ && ShmTransport::segment_bytes(dims) <= tp_->mapped_bytes()) {
    tp_->reinit(dims);
  } else {
    tp_.reset();  // one mapping at a time: unmap before mapping larger
    tp_ = ShmTransport::create(dims, /*shared=*/false);
  }
  return *tp_;
}

void RunContext::start(std::int32_t n, std::function<void(ProcId)> fn) {
  crew_->start(n, std::move(fn));
}

void RunContext::wait() { crew_->wait(); }

void RunContext::stop_crew() { crew_->stop(); }

}  // namespace rapid::rt
