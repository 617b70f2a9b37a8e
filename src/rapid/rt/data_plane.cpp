// The executor's data plane: coalesced RMA puts (staging, then release
// publication), completion flags, the bounded re-request (NACK) recovery
// layer, RA/CQ service, and the blocking address-package send of the MAP
// state. Every function here runs on the owning rank's thread.
#include <algorithm>
#include <vector>

#include "rapid/rt/executor_impl.hpp"
#include "rapid/support/checksum.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

using Impl = ThreadedExecutor::Impl;

/// Mirror the running recovery totals into the transport's control plane
/// so an external sampler sees per-rank NACK/resend rates mid-run. Only
/// called on recovery paths (already cold).
void Impl::publish_recovery_counters(ProcId q) {
  const CounterBlock& c = priv[q].ctr;
  tp->publish_recovery(q, c[kCtrNacksSent],
                       c[kCtrResends] + c[kCtrFlagResends]);
}

/// The coalesced RMA put: every send of the batch targets `dest`, and the
/// batch runs as one staging pass followed by one publication pass with a
/// single doorbell ring at the end — the trace-driven hot-path fix for SND
/// states that fan several small objects into the same destination (one
/// bell ring per *batch* instead of per put). Per put the protocol is unchanged: payload memcpy into the
/// destination heap with no lock held, then a release publish in the
/// order crc (relaxed) → version (release) → seq (release) — readiness
/// gates on version, trust gates on seq, and an acquire load of seq makes
/// the payload, crc, and version all visible. Publication replays the
/// batch in staging order, so per (object, dest) nothing is reordered.
/// Always runs on the owner's thread (complete_task / initial sends / CQ
/// dispatch / NACK resend), so the copies are program-ordered and the
/// version/crc/seq slots keep a single writer. The put-delay fault
/// stretches the window between copy and publication — bytes written,
/// visibility withheld — which a correct reader must never notice; with
/// coalescing the whole batch sits staged through the slowest put's
/// window. The corruption fault flips a destination byte inside that same
/// window, which the checksum must catch before the content is trusted.
void Impl::transmit_batch(ProcId q, ProcId dest,
                          std::span<const ContentSend> sends) {
  Private& me = priv[q];
  const WindowView& dst = win[dest];
  const WindowView& mine = win[q];
  auto& staged = me.staged;
  staged.clear();
  std::int64_t batch_bytes = 0;
  std::int64_t delay_us = 0;
  for (const ContentSend& s : sends) {
    RAPID_CHECK(s.dest == dest, "batched send to the wrong destination");
    RAPID_CHECK(me.current_version[s.object] == s.version,
                cat("object ", plan.graph->data(s.object).name,
                    " overwritten before version ", s.version,
                    " was sent"));
    const mem::Offset dst_off = addr_slot(me, s.object, dest);
    RAPID_CHECK(dst_off != mem::kNullOffset, "transmit without address");
    const std::int64_t size = plan.graph->data(s.object).size_bytes;
    const mem::Offset src_off = offset_of(q, s.object);
    const std::uint32_t attempt = ++me.sent_seq[slot_index(s.object, dest)];
    if (tracing) {
      trace->record(q, obs::EventKind::kPut, s.object, s.version, dest,
                    size, static_cast<std::uint16_t>(attempt));
    }
    if (size > 0) {
      tp->put(dst, dst_off, mine.heap + src_off, size);
    }
    // Digest of the source bytes (stable: the owner is the only writer of
    // its own object and is not inside a task body here).
    const std::uint32_t crc =
        crc32c({mine.heap + src_off, static_cast<std::size_t>(size)});
    if (faults_on && size > 0 &&
        faults.corrupt_put(s.object, s.version, dest, attempt)) {
      const auto [site, mask] = faults.corrupt_site(s.object, s.version,
                                                    dest);
      dst.heap[static_cast<std::ptrdiff_t>(dst_off) +
               static_cast<std::ptrdiff_t>(
                   site % static_cast<std::uint64_t>(size))] ^=
          static_cast<std::byte>(mask);
    }
    if (faults_on) {
      delay_us = std::max(delay_us,
                          faults.put_delay_us(s.object, s.version, dest));
    }
    staged.push_back({s.object, s.version, size, crc, attempt});
    batch_bytes += size;
  }
  // One delay for the whole batch, stretched to its slowest put: every
  // staged payload stays unpublished through the window, which is exactly
  // the copied-but-invisible state the fault models.
  if (delay_us > 0) sleep_us(delay_us);
  for (const StagedPut& p : staged) {
    // The one publication-order contract (crc relaxed -> version
    // release max-merge -> seq release), defined once on the transport.
    tp->publish(dst, p.object, p.version, p.crc, p.attempt);
    if (p.attempt > 1) {
      ++me.ctr[kCtrResends];
      publish_recovery_counters(q);
    }
    if (tracing) {
      trace->record(q, p.attempt > 1 ? obs::EventKind::kResend
                                     : obs::EventKind::kPutPublish,
                    p.object, p.version, dest, p.size,
                    static_cast<std::uint16_t>(p.attempt));
    }
  }
  me.ctr[kCtrContentMessages] += static_cast<std::int64_t>(sends.size());
  me.ctr[kCtrContentBytes] += batch_bytes;
  ++me.ctr[kCtrPutBatches];
  bump_progress();
}

/// A send whose destination buffer address is not known yet waits in the
/// suspended queue until the reader's address package arrives (CQ).
inline void Impl::suspend_send(Private& me, const ContentSend& s) {
  RAPID_CHECK(config.active_memory, "baseline must know every address");
  me.suspended_by_dest[s.dest].push_back(s);
  ++me.suspended_count;
  ++me.ctr[kCtrSuspendedSends];
}

/// Route a SND state's sends: coalesce the ones whose destination buffer
/// addresses are already known into one transmit_batch per destination
/// (per-destination program order preserved); suspend the rest.
void Impl::dispatch_sends(ProcId q, std::span<const ContentSend> sends) {
  if (sends.empty()) return;
  Private& me = priv[q];
  if (sends.size() == 1) {
    const ContentSend& s = sends.front();
    if (addr_slot(me, s.object, s.dest) != mem::kNullOffset) {
      transmit(q, s);
    } else {
      suspend_send(me, s);
    }
    return;
  }
  bool any_ready = false;
  for (const ContentSend& s : sends) {
    if (addr_slot(me, s.object, s.dest) != mem::kNullOffset) {
      me.batch_by_dest[s.dest].push_back(s);
      any_ready = true;
    } else {
      suspend_send(me, s);
    }
  }
  if (!any_ready) return;
  for (ProcId r = 0; r < plan.num_procs; ++r) {
    auto& batch = me.batch_by_dest[r];
    if (batch.empty()) continue;
    transmit_batch(q, r, batch);
    batch.clear();
  }
}

// ---- re-request (NACK) recovery ------------------------------------------

/// Waiter side: ask the owner to (re)send the message the current wait
/// is missing. For content waits, the request carries the waiter's own
/// buffer offset — so a lost address package is healed by the re-request
/// itself — and the last put sequence the waiter *examined* (verified or
/// rejected), NOT a fresh load of put_seq: a newer, not-yet-examined put
/// means the wait is about to resolve, and advertising its sequence
/// would let the owner retransmit concurrently with this reader's first
/// CRC pass over those very bytes. With the examined sequence, a resend
/// can only target a sequence whose bytes this reader is done reading
/// (rejected copies are never re-read; verified ones are gated by the
/// WAR anti-edges), which is what makes the resend memcpy race-free.
void Impl::send_nack(ProcId q, const GateRef& gate) {
  Private& me = priv[q];
  NackRequest n;
  n.requester = q;
  ProcId owner;
  if (gate.object != graph::kInvalidData) {
    owner = plan.graph->data(gate.object).owner;
    n.object = gate.object;
    n.version = gate.version;
    n.reader_offset = offset_of(q, gate.object);
    n.observed_seq = std::max(me.verified_seq[gate.object],
                              me.rejected_seq[gate.object]);
  } else {
    owner = plan.schedule.proc_of_task[gate.flag_task];
    n.flag_task = gate.flag_task;
  }
  ++me.ctr[kCtrNacksSent];
  publish_recovery_counters(q);
  if (tracing) {
    if (gate.object != graph::kInvalidData) {
      trace->record(q, obs::EventKind::kNack, gate.object, gate.version,
                    owner, 0, static_cast<std::uint16_t>(n.observed_seq));
    } else {
      trace->record(q, obs::EventKind::kNack, -1,
                    static_cast<std::int32_t>(gate.flag_task), owner);
    }
  }
  if (induced_on && faults.drop_nacks) return;  // lost recovery traffic
  tp->push_nack(owner, n);
  bump_progress();  // wake the owner if parked
}

/// Owner side: service one re-request idempotently. Replay safety
/// (docs/PROTOCOL.md): the version/crc/seq slots are single-writer, an
/// object has one lifetime window per reader (so the slot address is
/// stable), and a resend is issued only when the request's observed_seq
/// equals this owner's sent_seq — at most one retransmit per observed
/// state, and never one that could race the reader's verification of a
/// newer put. A waiter still needing version v implies (by the WAR
/// anti-edges of a dependence-complete plan) the owner's current_version
/// is still v, so retransmitting current content is consistent.
bool Impl::service_nack(ProcId q, const NackRequest& n) {
  Private& me = priv[q];
  if (n.flag_task != graph::kInvalidTask) {
    // Flag stores are idempotent; resend iff the task completed here.
    if (plan.schedule.pos_of_task[n.flag_task] < me.pos) {
      send_flag(q, n.requester, n.flag_task);
      ++me.ctr[kCtrFlagResends];
      publish_recovery_counters(q);
      return true;
    }
    return false;  // not yet complete: normal completion will deliver it
  }
  const DataId d = n.object;
  bool installed = false;
  mem::Offset& slot = addr_slot(me, d, n.requester);
  if (slot == mem::kNullOffset) {
    // The address package carrying this buffer was lost: the re-request
    // heals it (the waiter always knows its own buffer — Fact I). The CQ
    // scan after this drain dispatches the suspended send.
    slot = n.reader_offset;
    ++me.addr_epoch[n.requester];
    installed = true;
  }
  if (me.current_version[d] < n.version) {
    // The epoch producing the needed version has not completed here yet;
    // its completion will send normally. Nothing to resend.
    return installed;
  }
  if (me.current_version[d] > n.version) {
    // Stale re-request: the waiter was already satisfied (its NACK raced
    // the delivery). WAR anti-edges forbid this while the wait is real.
    ++me.ctr[kCtrDupSuppressions];
    return installed;
  }
  auto& queue = me.suspended_by_dest[n.requester];
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->object == d && it->version == n.version) {
      // The original send never left: it was suspended waiting for the
      // very address this re-request carried (or that arrived late).
      // Dispatch it here AND erase it, so neither a second queued NACK
      // nor the CQ scan after this drain can transmit it again — a
      // double dispatch would memcpy over bytes the waiter may already
      // be CRC-verifying from the first copy.
      transmit(q, *it);
      queue.erase(it);
      --me.suspended_count;
      return true;
    }
  }
  if (installed) return true;  // nothing suspended: completion will send
  if (me.sent_seq[slot_index(d, n.requester)] != n.observed_seq) {
    // A newer put than the waiter observed is already published (the
    // NACK raced it): replaying now could race the waiter's verification
    // of that put. Suppress — the waiter re-checks before re-requesting.
    ++me.ctr[kCtrDupSuppressions];
    return installed;
  }
  transmit(q, ContentSend{d, n.version, n.requester});
  return true;
}

/// The re-request deadline of a recovery-enabled REC wait (publish_wait
/// tracks which wait it is): sends a re-request when the wait's
/// steady-clock deadline expires. Returns true when the attempts just ran
/// out; the exhausted wait stays published until it heals or the monitor
/// escalates it.
bool Impl::note_blocked_wait(ProcId q, const GateRef& gate) {
  Private& me = priv[q];
  WaitTracker& w = me.wait;
  WaitRecord& rec = w.rec;
  if (rec.exhausted) return false;
  const std::int64_t now = now_ns();
  const bool fast = gate.rejected && me.fast_nack;
  if (!fast && now < w.deadline_ns) return false;
  me.fast_nack = false;
  if (rec.retry_attempts >= options.retry.max_attempts) {
    rec.exhausted = true;
    return true;
  }
  ++rec.retry_attempts;
  w.deadline_ns = sat_add_i64(
      now, sat_mul_i64(options.retry.delay_us(rec.retry_attempts + 1), 1000));
  send_nack(q, gate);
  return false;
}

// ---- RA / CQ ---------------------------------------------------------------

/// RA: consume address packages from my mailbox slots (suppressing
/// replays by per-source sequence and rejecting corrupted packages before
/// installing any entry), then drain re-requests, then CQ: dispatch
/// suspended sends whose addresses became known. Returns whether any
/// package was consumed, request serviced, or send dispatched (the
/// caller's backoff resets on progress).
bool Impl::service_ra_cq(ProcId q) {
  Private& me = priv[q];
  bool progressed = false;
  if (tp->addr_packages_pending(q)) {
    std::vector<AddrPackage> consumed;
    tp->drain_addr_packages(q, &consumed);
    for (const AddrPackage& pkg : consumed) {
      if (pkg.seq != 0) {
        auto& last_seen = me.pkg_seq_seen[pkg.reader];
        if (pkg.seq <= last_seen) {
          // Replayed/duplicated package: entries were already installed
          // (idempotently installable anyway — one lifetime window per
          // object keeps the offsets identical), only the count matters.
          ++me.ctr[kCtrDupSuppressions];
          continue;
        }
        if (pkg.crc != pkg.checksum()) {
          ++me.ctr[kCtrChecksumRejections];
          if (!recovery_on) {
            fail(q,
                 cat("integrity: address package from p", pkg.reader,
                     " to p", q, " failed its checksum"),
                 FailureKind::kIntegrity);
            return progressed;
          }
          // Dropped before advancing last_seen: the waiter's re-request
          // carries the same addresses and heals this.
          continue;
        }
        last_seen = pkg.seq;
      }
      for (const auto& [d, offset] : pkg.entries) {
        addr_slot(me, d, pkg.reader) = offset;
      }
      ++me.addr_epoch[pkg.reader];
      if (tracing) {
        trace->record(q, obs::EventKind::kAddrPkgInstall,
                      static_cast<std::int32_t>(pkg.entries.size()),
                      static_cast<std::int32_t>(pkg.seq), pkg.reader);
      }
      progressed = true;
      bump_progress();
    }
  }
  if (recovery_on && tp->nacks_pending(q)) {
    std::vector<NackRequest> requests;
    tp->drain_nacks(q, &requests);
    for (const NackRequest& n : requests) {
      if (service_nack(q, n)) progressed = true;
    }
  }
  if (me.suspended_count > 0) {
    for (ProcId r = 0; r < plan.num_procs; ++r) {
      auto& queue = me.suspended_by_dest[r];
      if (queue.empty() || me.scanned_epoch[r] == me.addr_epoch[r]) {
        continue;  // no new addresses from r since the last scan
      }
      me.scanned_epoch[r] = me.addr_epoch[r];
      // The suspended queue for one destination is a natural batch: every
      // send whose address just arrived goes out in one coalesced put.
      auto& batch = me.batch_by_dest[r];
      for (auto it = queue.begin(); it != queue.end();) {
        if (addr_slot(me, it->object, r) != mem::kNullOffset) {
          batch.push_back(*it);
          it = queue.erase(it);
          --me.suspended_count;
        } else {
          ++it;
        }
      }
      if (!batch.empty()) {
        transmit_batch(q, r, batch);
        batch.clear();
        progressed = true;
      }
    }
  }
  return progressed;
}

/// Blocking send of one address package (MAP state): spins then parks on
/// the doorbell while the destination slot is full, servicing RA/CQ like
/// the paper requires. The package is stamped with its per-(sender, dest)
/// sequence number and CRC at send time. Fault hooks: the package may be
/// delayed (reordering delivery relative to other sources), dropped
/// outright — the induced deadlock the stall diagnostics must explain and
/// the re-request recovery must heal — or duplicated (delivered twice
/// with the same sequence number, bypassing the slot bound, which the
/// receiver must suppress).
bool Impl::send_addr_package_blocking(ProcId q, ProcId dest,
                                      const AddrPackage& pkg) {
  Private& me = priv[q];
  std::int64_t ordinal = 0;
  if (faults_on) {
    ordinal = ++me.addr_pkgs_sent;
    if (induced_on && faults.drop_addr_src == q &&
        faults.drop_addr_nth == ordinal) {
      return true;  // swallowed: a lost control message
    }
    const std::int64_t delay = faults.addr_delay_us(q, dest, ordinal);
    if (delay > 0) sleep_us(delay);
  }
  AddrPackage stamped = pkg;
  stamped.seq = ++me.pkg_seq_sent[dest];
  stamped.crc = stamped.checksum();
  // Network-level duplication fault: same sequence number, past the slot
  // bound (the bound is a protocol courtesy the fault deliberately
  // violates); the receiver must suppress the replay.
  std::int32_t copies = 1;
  if (faults_on && faults.dup_addr_package(q, dest, ordinal)) copies = 2;
  Backoff backoff(*bell, kSpinIters, effective_park_us);
  bool sent = false;
  while (!tp->aborted()) {
    const std::uint64_t seen = bell->value();
    if (tp->try_send_addr_package(q, dest, stamped, config.mailbox_slots,
                                  copies)) {
      ++me.ctr[kCtrAddrPackages];
      me.ctr[kCtrAddrEntries] +=
          static_cast<std::int64_t>(stamped.entries.size());
      sent = true;
      if (tracing) {
        trace->record(q, obs::EventKind::kAddrPkgSend,
                      static_cast<std::int32_t>(stamped.entries.size()),
                      static_cast<std::int32_t>(stamped.seq), dest);
      }
      bump_progress();
      break;
    }
    if (service_ra_cq(q)) {
      backoff.reset();
    } else {
      publish_wait(q, ProcState::kMapBlocked, GateRef{}, dest);
      traced_pause(q, backoff, seen);
    }
  }
  return sent;
}
}  // namespace rapid::rt
