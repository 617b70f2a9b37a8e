// RunContext: what in-proc runs reuse instead of rebuilding — a crew of
// rank threads that park between runs and one private segment mapping.
// RAPID's processors are long-lived nodes; a run should pay for its
// protocol work, not for starting ranks.
//
// A context serves one executor at a time (the lease). Each run on it
//   * maps a segment only when the run's layout does not fit the one it
//     keeps (the larger mapping replaces the old one), and otherwise
//     re-initializes the kept mapping in place (ShmTransport::reinit, the
//     same init code a fresh mapping gets);
//   * hands worker(q) for every rank q to a crew thread — the crew grows to
//     the largest num_procs it has served — and waits for them on a
//     release/acquire atomic latch instead of joining threads.
// The destructor joins the crew and unmaps the segment. A standalone
// ThreadedExecutor owns a private context whose crew exits at the end of
// each run, so it costs what a one-run executor always did; RuntimeService
// keeps one context per worker, so the memory a service retains between
// runs is bounded by workers x the largest layout it admitted
// (docs/SERVICE.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "rapid/rt/shm_transport.hpp"

namespace rapid::rt {

class RunContext {
 public:
  RunContext();
  /// Joins the crew and unmaps the segment. No executor may hold the lease.
  ~RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Length and base address of the one mapping the context keeps (0 and
  /// null before its first in-proc run).
  std::int64_t mapped_bytes() const;
  const std::byte* mapping_base() const;
  /// Rank threads in the crew: the largest num_procs it has served.
  std::int32_t crew_size() const;

 private:
  friend struct ThreadedExecutor::Impl;

  /// Takes the lease for one executor's lifetime; fails a RAPID_CHECK when
  /// another executor holds it.
  void lease();
  void unlease();
  /// The private transport for a run with `dims`: the kept mapping
  /// re-initialized in place when the layout fits, else a fresh mapping
  /// (the old one is unmapped first).
  ShmTransport& transport_for(const ShmTransport::Dims& dims);
  /// Runs fn(q) for q in [0, n) on crew threads, growing the crew to n.
  /// Everything the caller wrote before start() happens-before each fn(q).
  void start(std::int32_t n, std::function<void(ProcId)> fn);
  /// Blocks until every fn(q) of the last start() returned; everything
  /// they wrote happens-before the return.
  void wait();
  /// Joins the crew's threads (the next start() spawns new ones).
  void stop_crew();

  class Crew;
  std::unique_ptr<Crew> crew_;
  std::unique_ptr<ShmTransport> tp_;
  std::atomic<bool> leased_{false};
};

}  // namespace rapid::rt
