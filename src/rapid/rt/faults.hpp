// Deterministic fault injection for the threaded executor. Theorem 1
// promises liveness only when the protocol's assumptions hold; this layer
// exists to adversarially bend them at run time — stretching message
// timings until latent orderings surface, and breaking delivery outright to
// prove the stall diagnostics (rt/stall.hpp) can explain the resulting
// deadlock. Every perturbation is a pure function of (seed, site), so a
// failing seed replays bit-identically; with the plan disabled (the
// default) the executor pays one predictable branch per hook site.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "rapid/graph/ids.hpp"
#include "rapid/support/check.hpp"

namespace rapid::rt {

/// Thrown by the executor when FaultPlan::throw_in_task fires — kept
/// distinct from user task-body exceptions so RunReport::failure_kind can
/// tell an injected failure from a real kernel bug.
class InjectedFaultError : public Error {
 public:
  using Error::Error;
};

/// A task failure the recovery layer may retry: the executor re-runs the
/// task (bounded by RetryPolicy::max_attempts) instead of cancelling the
/// run. Task bodies can throw it for genuinely transient conditions;
/// FaultPlan::transient_throw_in_task injects it for the retry tests.
class TransientTaskError : public Error {
 public:
  using Error::Error;
};

/// A reproducible perturbation schedule for one ThreadedExecutor run.
/// Delay draws are stateless hashes of (seed, site identifiers), never a
/// shared RNG stream, so they are thread-safe and independent of the
/// interleaving they themselves create. All classes are off by default;
/// enabled() gates every hook in the executor.
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Class 1 — address-package delivery delay: the sender sleeps before
  /// pushing a package into the destination mailbox, which reorders
  /// deliveries relative to other sources and to the content puts the
  /// addresses unlock.
  double addr_delay_prob = 0.0;
  std::int64_t addr_delay_max_us = 0;

  /// Class 2 — content-put publication delay: the payload memcpy completes
  /// but the release store of received_version is deferred, widening the
  /// window a reader could (incorrectly) observe unpublished bytes.
  double put_delay_prob = 0.0;
  std::int64_t put_delay_max_us = 0;

  /// Class 3 — task-body slowdown: a pseudorandom sleep before the body
  /// runs, so protocol states overlap in orders a fast kernel never shows.
  double task_slow_prob = 0.0;
  std::int64_t task_slow_max_us = 0;

  /// Class 4 — forced park-timeout wakeups: shrinks the doorbell park
  /// timeout so every blocked state keeps waking by timeout instead of by
  /// ring, exercising the stale-wakeup re-check paths.
  bool force_park_timeout = false;
  std::int64_t forced_park_timeout_us = 50;

  /// Class 5 — payload corruption: flip one byte of the destination copy
  /// between the RMA memcpy and the version publication (a corrupted
  /// transfer the checksum must catch before the content is trusted). Only
  /// the first `corrupt_max_attempts` put attempts of a given (object,
  /// version, dest) are corrupted, so a NACK-triggered resend delivers
  /// clean bytes and recovery can converge.
  double corrupt_prob = 0.0;
  std::int32_t corrupt_max_attempts = 1;

  /// Class 6 — address-package duplication/replay: after a successful
  /// mailbox push, an identical copy (same sequence number) is delivered
  /// again, bypassing the slot bound — network-level duplication the
  /// receiver must suppress idempotently.
  double dup_addr_prob = 0.0;

  /// Induced failure — drop the nth (1-based) address package that
  /// processor `drop_addr_src` sends, counted in that processor's own
  /// deterministic program order. The owner never learns those addresses,
  /// its content sends suspend forever, and the run deadlocks — the
  /// canonical input for the stall-diagnosis tests (and, with recovery
  /// enabled, for the address-carrying re-request path that heals it).
  graph::ProcId drop_addr_src = graph::kInvalidProc;
  std::int64_t drop_addr_nth = -1;

  /// Induced failure — throw InjectedFaultError instead of running this
  /// task's body (cooperative-cancellation test input).
  graph::TaskId throw_in_task = graph::kInvalidTask;

  /// Induced failure — the task throws TransientTaskError on its first
  /// `transient_throw_count` execution attempts and succeeds afterwards
  /// (task-retry test input).
  graph::TaskId transient_throw_in_task = graph::kInvalidTask;
  std::int32_t transient_throw_count = 1;

  /// Induced failure — swallow every re-request (NACK), modeling lost
  /// recovery traffic: bounded retries exhaust and must escalate with the
  /// exhausted wait in the StallReport.
  bool drop_nacks = false;

  /// Induced failure — process kill (multi-process/shm transport only):
  /// rank `kill_proc` SIGKILLs itself at its `kill_at_site`-th (1-based)
  /// entry into protocol phase `kill_phase`, counted in the rank's own
  /// deterministic program order. In-proc runs ignore it (a
  /// thread cannot fail independently); the shm coordinator must detect
  /// the corpse and fail-stop with a ProcFailureReport. Site ordinals are
  /// per (rank, phase): REC counts first-blocked-or-ready entries per
  /// position, EXE counts task bodies started, SND counts task
  /// completions, MAP counts MAP procedures begun.
  graph::ProcId kill_proc = graph::kInvalidProc;
  std::int32_t kill_phase = -1;  // one of kKillRec..kKillMap
  std::int64_t kill_at_site = -1;

  static constexpr std::int32_t kKillRec = 0;
  static constexpr std::int32_t kKillExe = 1;
  static constexpr std::int32_t kKillSnd = 2;
  static constexpr std::int32_t kKillMap = 3;

  /// Process-kill plan: rank `proc` dies at its `nth` entry into `phase`.
  static FaultPlan kill_proc_at(graph::ProcId proc, std::int32_t phase,
                                std::int64_t nth) {
    FaultPlan p;
    p.kill_proc = proc;
    p.kill_phase = phase;
    p.kill_at_site = nth;
    return p;
  }

  bool should_kill(graph::ProcId q, std::int32_t phase,
                   std::int64_t ordinal) const {
    return q == kill_proc && phase == kill_phase && ordinal == kill_at_site;
  }

  /// Induced failures (drop/throw/transient/drop_nacks) fire only on run
  /// attempts <= this bound (ThreadedOptions::run_attempt, 1-based) —
  /// run_with_recovery's restarted attempt then runs clean. Probabilistic
  /// classes 1–6 are not gated: they model environment faults that do not
  /// go away on restart.
  std::int32_t induced_fault_runs = 1 << 30;

  bool enabled() const {
    return addr_delay_prob > 0.0 || put_delay_prob > 0.0 ||
           task_slow_prob > 0.0 || force_park_timeout ||
           corrupt_prob > 0.0 || dup_addr_prob > 0.0 ||
           (drop_addr_src != graph::kInvalidProc && drop_addr_nth > 0) ||
           throw_in_task != graph::kInvalidTask ||
           transient_throw_in_task != graph::kInvalidTask || drop_nacks ||
           (kill_proc != graph::kInvalidProc && kill_at_site > 0);
  }

  /// Sweep presets: one per fault class, fully determined by the seed.
  static FaultPlan address_delays(std::uint64_t seed);
  static FaultPlan put_delays(std::uint64_t seed);
  static FaultPlan slow_tasks(std::uint64_t seed);
  static FaultPlan forced_park_timeouts(std::uint64_t seed);
  static FaultPlan payload_corruption(std::uint64_t seed);
  static FaultPlan package_duplication(std::uint64_t seed);
  /// Preset by name ("addr", "put", "slow", "park", "corrupt", "dup") for
  /// CLI flags; throws rapid::Error on unknown names.
  static FaultPlan preset(const std::string& name, std::uint64_t seed);

  /// Deterministic per-site draws (µs to sleep; 0 = no delay at this site).
  std::int64_t addr_delay_us(graph::ProcId src, graph::ProcId dest,
                             std::int64_t ordinal) const;
  std::int64_t put_delay_us(graph::DataId object, std::int32_t version,
                            graph::ProcId dest) const;
  std::int64_t task_delay_us(graph::TaskId task) const;

  /// Whether put attempt `attempt` (1-based, the owner's per-slot sequence
  /// number) of (object, version, dest) is corrupted.
  bool corrupt_put(graph::DataId object, std::int32_t version,
                   graph::ProcId dest, std::uint32_t attempt) const;
  /// Which destination byte to flip and with what mask (mask always
  /// nonzero); only meaningful when corrupt_put() returned true.
  std::pair<std::uint64_t, std::uint8_t> corrupt_site(
      graph::DataId object, std::int32_t version, graph::ProcId dest) const;

  /// Whether the sender's `ordinal`-th address package to `dest` is
  /// delivered twice.
  bool dup_addr_package(graph::ProcId src, graph::ProcId dest,
                        std::int64_t ordinal) const;

  /// Whether this task's `attempt`-th (1-based) execution throws
  /// TransientTaskError.
  bool task_throws_transient(graph::TaskId task, std::int32_t attempt) const {
    return task == transient_throw_in_task && attempt <= transient_throw_count;
  }
};

}  // namespace rapid::rt
