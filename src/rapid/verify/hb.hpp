// Vector-clock happens-before engine over obs traces. The obs rings are
// single-writer and read only after thread::join(), so each ring is a
// totally ordered thread history; the cross-ring edges of the paper's
// protocol are recovered from the event vocabulary itself:
//
//   publish → consume      the content put's release store of put_seq and
//                          the reader's acquire load of it (the kConsume
//                          stamp is that very load, so the edge is a real
//                          release/acquire synchronizes-with, not a
//                          timestamp heuristic)
//   pkg send → install     the address-package mailbox handoff
//   flag send → task begin the completion flag's release store gating the
//                          first remote-sync successor on the reader
//   NACK → resend          the re-request ring's lock ordering a waiter's
//                          request before the owner's retransmit
//
// Bell signal→wake edges carry no extra ordering here: every ring of the
// data-plane bell accompanies one of the protocol events above, so
// the wakeup chain is subsumed by these edges, and the handshake itself is
// model-checked exhaustively by verify/litmus.hpp instead. Plan dependences
// need no edges of their own either — a same-processor dependence is ring
// program order, and a cross-processor one is realized by exactly the
// publish/flag messages listed above (that realization is what
// conformance.hpp checks).
//
// The engine assigns every event a vector clock by processing events in a
// topological order of (program order ∪ cross edges); happens_before is
// then a single clock comparison. verify/conformance.cpp derives the edges
// and asks the race questions; this header is protocol-agnostic.
#pragma once

#include <cstdint>
#include <vector>

#include "rapid/obs/trace.hpp"
#include "rapid/rt/plan.hpp"

namespace rapid::verify {

/// One trace event, addressed as (ring, index into TraceView::rings[ring]).
struct EventRef {
  std::int32_t proc = -1;
  std::int32_t index = -1;

  bool valid() const { return proc >= 0; }
  bool operator==(const EventRef& other) const {
    return proc == other.proc && index == other.index;
  }
};

/// Post-run snapshot of a Trace: per-ring event sequences (oldest first)
/// plus the per-ring overflow counts. The conformance checker consumes a
/// TraceView rather than the live Trace so the negative-path tests can
/// seed protocol violations by editing the view (see verify/testing.hpp).
struct TraceView {
  std::vector<std::vector<obs::TraceEvent>> rings;
  std::vector<std::int64_t> dropped;

  static TraceView from(const obs::Trace& trace);

  int num_procs() const { return static_cast<int>(rings.size()); }
  /// True when any ring overflowed: the retained prefix of history is
  /// gone, and absence-of-event conclusions are no longer sound.
  bool truncated() const;
  const obs::TraceEvent& at(EventRef ref) const {
    return rings[static_cast<std::size_t>(ref.proc)]
                [static_cast<std::size_t>(ref.index)];
  }
};

/// The protocol's cross-ring edges, plus the match failures the derivation
/// surfaced (the conformance checker turns those into findings).
struct ProtocolEdges {
  /// (src, dst) pairs: src happens-before dst.
  std::vector<std::pair<EventRef, EventRef>> edges;
  /// kConsume events with no matching publication on the owner's ring —
  /// a read of content nothing released (HB-RACE evidence).
  std::vector<EventRef> unmatched_consumes;
  /// kAddrPkgInstall events with no matching kAddrPkgSend (CONF-MSG
  /// evidence: an installed package nobody sent).
  std::vector<EventRef> unmatched_installs;
};

/// Derives the publish→consume, pkg send→install, flag→gated-task-begin
/// and NACK→resend edges from the trace, matching on the put-sequence
/// stamps (TraceEvent::d) where present and falling back to
/// (object, version, dest) for stamp-free traces.
ProtocolEdges derive_protocol_edges(const rt::RunPlan& plan,
                                    const TraceView& view);

/// Vector clocks over (ring program order ∪ cross edges).
class HbGraph {
 public:
  HbGraph(const TraceView& view,
          const std::vector<std::pair<EventRef, EventRef>>& cross_edges);

  /// False when the edges are cyclic — impossible for a trace produced by
  /// a real run (edges follow real synchronization), so a cycle means the
  /// trace was corrupted or hand-edited; happens_before is then
  /// meaningless and the conformance checker reports instead of querying.
  bool consistent() const { return consistent_; }

  /// Strict happens-before: a ≺ b under (program order ∪ cross edges)+.
  /// Requires consistent().
  bool happens_before(EventRef a, EventRef b) const;

  std::int64_t num_events() const { return num_events_; }

 private:
  /// clocks_[r] holds, flattened, one vector clock of width num_procs per
  /// event of ring r: clocks_[r][i * P + q] = number of ring-q events that
  /// happen-before-or-equal event (r, i).
  std::vector<std::vector<std::int32_t>> clocks_;
  std::int32_t num_procs_ = 0;
  std::int64_t num_events_ = 0;
  bool consistent_ = true;
};

}  // namespace rapid::verify
