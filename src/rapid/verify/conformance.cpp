#include "rapid/verify/conformance.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rapid/rt/map_engine.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::verify {
namespace {

using obs::EventKind;
using obs::ProtoState;
using obs::TraceEvent;

/// One MAP as the symbolic replay predicts it: position, byte deltas, and
/// the arena occupancy after it — the reference CONF-CAP compares traced
/// kMapFree/kMapAlloc/kHeapSample events against.
struct MapExpect {
  std::int32_t pos = 0;
  std::int64_t freed_bytes = 0;
  std::int64_t alloc_bytes = 0;
  std::int64_t in_use_after = 0;
};

/// One MAP as the trace recorded it (kMapBegin .. kMapEnd group).
struct MapTraced {
  std::int32_t pos = 0;
  std::int64_t freed_bytes = 0;
  std::int64_t alloc_bytes = 0;
  std::int64_t sample_after = -1;  // first kHeapSample after kMapEnd
};

class Checker {
 public:
  Checker(const rt::RunPlan& plan, const TraceView& view,
          const ConformanceOptions& options)
      : plan_(plan), view_(view), options_(options) {}

  AuditReport run() {
    RAPID_CHECK(view_.num_procs() >= plan_.num_procs,
                cat("trace has ", view_.num_procs(),
                    " rings but the plan runs ", plan_.num_procs,
                    " processors"));
    note_truncation();
    edges_ = derive_protocol_edges(plan_, view_);
    replay_capacity();
    for (rt::ProcId q = 0; q < plan_.num_procs; ++q) {
      check_states(q);
    }
    check_messages();
    check_races();
    check_capacity();
    flush_truncation_notes();
    return std::move(report_);
  }

 private:
  // -- finding plumbing (auditor discipline + overflow degradation) -------

  void add(Finding finding) {
    // Graceful degradation on ring overflow: with events overwritten, an
    // absent publication/state/byte-delta may simply be lost history, so
    // the history-dependent rules downgrade their errors to warnings.
    if (view_.truncated() && finding.severity == Severity::kError) {
      finding.severity = Severity::kWarning;
    }
    const auto count = ++rule_counts_[finding.rule];
    if (count <= options_.max_findings_per_rule) {
      report_.findings.push_back(std::move(finding));
    }
  }

  void flush_truncation_notes() {
    for (const auto& [rule, count] : rule_counts_) {
      if (count > options_.max_findings_per_rule) {
        Finding f;
        f.rule = "AUDIT-TRUNCATED";
        f.severity = Severity::kInfo;
        f.message = cat(rule, ": ", count, " findings, only the first ",
                        options_.max_findings_per_rule, " shown");
        report_.findings.push_back(std::move(f));
      }
    }
  }

  void note_truncation() {
    if (!view_.truncated()) return;
    std::string drops;
    for (int q = 0; q < view_.num_procs(); ++q) {
      if (view_.dropped[static_cast<std::size_t>(q)] > 0) {
        if (!drops.empty()) drops += ", ";
        drops += cat("p", q, ": ",
                     view_.dropped[static_cast<std::size_t>(q)]);
      }
    }
    Finding f;
    f.rule = "CONF-TRUNCATED";
    f.severity = Severity::kInfo;
    f.message = cat("trace ring(s) overflowed and overwrote the oldest "
                    "events (", drops,
                    "); HB-RACE/CONF-* errors are downgraded to warnings "
                    "and counter reconciliation is skipped");
    f.hint = "raise TraceConfig::events_per_proc to retain full history";
    report_.findings.push_back(std::move(f));
  }

  const std::vector<TraceEvent>& ring(int q) const {
    return view_.rings[static_cast<std::size_t>(q)];
  }

  bool ring_truncated(int q) const {
    return view_.dropped[static_cast<std::size_t>(q)] > 0;
  }

  std::string object_name(rt::DataId d) const {
    return d >= 0 && d < plan_.graph->num_data()
               ? plan_.graph->data(d).name
               : cat("object#", d);
  }

  // -- CONF-CAP reference: the auditor's symbolic MAP replay --------------

  void replay_capacity() {
    if (options_.capacity_per_proc <= 0) return;
    expected_maps_.resize(static_cast<std::size_t>(plan_.num_procs));
    replay_ok_.assign(static_cast<std::size_t>(plan_.num_procs), false);
    for (rt::ProcId p = 0; p < plan_.num_procs; ++p) {
      std::unique_ptr<rt::ProcMemory> memory;
      try {
        memory = std::make_unique<rt::ProcMemory>(
            plan_, p, options_.capacity_per_proc, options_.alignment,
            options_.alloc_policy, options_.slab_arena);
        if (!options_.active_memory) {
          memory->preallocate_all();
          baseline_in_use_.push_back(memory->in_use_bytes());
          replay_ok_[static_cast<std::size_t>(p)] = true;
          continue;
        }
        const auto n =
            static_cast<std::int32_t>(plan_.procs[p].order.size());
        for (std::int32_t pos = 0; pos < n; ++pos) {
          if (!memory->needs_map(pos)) continue;
          const rt::MapResult map = memory->perform_map(pos);
          MapExpect e;
          e.pos = pos;
          for (const rt::DataId d : map.freed) {
            e.freed_bytes += plan_.graph->data(d).size_bytes;
          }
          for (const rt::DataId d : map.allocated) {
            e.alloc_bytes += plan_.graph->data(d).size_bytes;
          }
          e.in_use_after = memory->in_use_bytes();
          expected_maps_[static_cast<std::size_t>(p)].push_back(e);
        }
        replay_ok_[static_cast<std::size_t>(p)] = true;
      } catch (const rt::NonExecutableError& e) {
        add({.rule = "CONF-CAP",
             .proc = p,
             .message = cat("symbolic CAP replay is non-executable at "
                            "capacity ",
                            options_.capacity_per_proc,
                            " bytes, yet the run produced a trace: ",
                            e.what()),
             .hint = "the checker's capacity/alignment/policy options must "
                     "match the run's RunConfig exactly"});
      }
    }
  }

  // -- CONF-STATE: protocol-state sequence vs scheduled positions ---------

  /// Change-only emission of the expected Fig. 3(b) state sequence for one
  /// processor, MAPs interleaved at `map_positions`.
  std::vector<ProtoState> expected_states(
      rt::ProcId q, const std::vector<std::int32_t>& map_positions) const {
    std::vector<ProtoState> out;
    const auto emit = [&out](ProtoState s) {
      if (out.empty() || out.back() != s) out.push_back(s);
    };
    std::size_t mi = 0;
    const auto n = static_cast<std::int32_t>(plan_.procs[q].order.size());
    for (std::int32_t pos = 0; pos < n; ++pos) {
      if (mi < map_positions.size() && map_positions[mi] == pos) {
        emit(ProtoState::kMap);
        ++mi;
      }
      emit(ProtoState::kRec);
      emit(ProtoState::kExe);
      emit(ProtoState::kSnd);
    }
    emit(ProtoState::kEnd);
    return out;
  }

  void check_states(rt::ProcId q) {
    std::vector<ProtoState> traced;
    std::vector<rt::TaskId> begun;
    std::vector<std::int32_t> map_positions;
    for (const TraceEvent& e : ring(q)) {
      switch (e.kind) {
        case EventKind::kStateEnter:
          traced.push_back(static_cast<ProtoState>(e.a));
          break;
        case EventKind::kTaskBegin:
          begun.push_back(static_cast<rt::TaskId>(e.a));
          break;
        case EventKind::kMapBegin:
          map_positions.push_back(e.a);
          break;
        default:
          break;
      }
    }
    if (ring(q).empty()) return;  // untraced ring (disabled or unused)

    // Task order: the traced kTaskBegin sequence must be exactly the
    // scheduled order (or its retained suffix after an overflow).
    const auto& order = plan_.procs[q].order;
    if (!match_sequence(begun, order, ring_truncated(q))) {
      add({.rule = "CONF-STATE",
           .proc = q,
           .message = cat("processor ", q, " traced ", begun.size(),
                          " task begins that diverge from its scheduled "
                          "order of ",
                          order.size(), " tasks",
                          first_divergence(begun, order)),
           .hint = "the executor ran tasks outside its scheduled positions "
                   "— or the trace was edited"});
      return;  // the state sequence is meaningless past a task divergence
    }

    // MAP positions must be strictly increasing; with a capacity replay
    // they must ALSO be exactly the replay's MAP positions.
    for (std::size_t i = 1; i < map_positions.size(); ++i) {
      if (map_positions[i] <= map_positions[i - 1]) {
        add({.rule = "CONF-STATE",
             .proc = q,
             .position = map_positions[i],
             .message = cat("processor ", q, " traced a MAP at position ",
                            map_positions[i], " after one at ",
                            map_positions[i - 1],
                            " — MAP positions must advance"),
             .hint = "ProcMemory::perform_map always extends the allocated "
                     "prefix"});
        return;
      }
    }
    std::vector<std::int32_t> expected_positions = map_positions;
    if (!expected_maps_.empty() &&
        replay_ok_[static_cast<std::size_t>(q)] && options_.active_memory) {
      expected_positions.clear();
      for (const MapExpect& e :
           expected_maps_[static_cast<std::size_t>(q)]) {
        expected_positions.push_back(e.pos);
      }
      if (!match_sequence(map_positions, expected_positions,
                          ring_truncated(q))) {
        add({.rule = "CONF-STATE",
             .proc = q,
             .message = cat("processor ", q, " traced ",
                            map_positions.size(),
                            " MAPs but the symbolic replay schedules ",
                            expected_positions.size(),
                            first_divergence(map_positions,
                                             expected_positions)),
             .hint = "MAP placement is deterministic per processor; a "
                     "divergence means the run used different "
                     "capacity/alignment/policy than the checker"});
        return;
      }
    }

    // The change-only REC→EXE→SND→MAP→END emission must match exactly
    // (suffix after an overflow).
    const std::vector<ProtoState> expected =
        expected_states(q, expected_positions);
    if (!match_sequence(traced, expected, ring_truncated(q))) {
      add({.rule = "CONF-STATE",
           .proc = q,
           .message = cat("processor ", q,
                          " traced a protocol-state sequence of ",
                          traced.size(),
                          " transitions that diverges from the scheduled ",
                          expected.size(),
                          first_divergence(traced, expected)),
           .hint = "each task must pass REC→EXE→SND with MAPs at the "
                   "replayed positions and END last (Fig. 3(b))"});
    }
  }

  /// Exact match, or — when the ring overflowed — match against the
  /// expected sequence's tail (the retained events are the newest).
  template <typename T>
  static bool match_sequence(const std::vector<T>& traced,
                             const std::vector<T>& expected,
                             bool truncated) {
    if (!truncated) return traced == expected;
    if (traced.size() > expected.size()) return false;
    return std::equal(traced.begin(), traced.end(),
                      expected.end() -
                          static_cast<std::ptrdiff_t>(traced.size()));
  }

  template <typename T>
  static std::string first_divergence(const std::vector<T>& traced,
                                      const std::vector<T>& expected) {
    const std::size_t n = std::min(traced.size(), expected.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!(traced[i] == expected[i])) {
        return cat(" (first divergence at step ", i, ")");
      }
    }
    return cat(" (lengths differ: ", traced.size(), " vs ",
               expected.size(), ")");
  }

  // -- CONF-MSG: puts/installs vs the plan's send set ---------------------

  void check_messages() {
    struct Publish {
      EventRef ref;
      EventKind kind;
      std::uint16_t seq;
      bool matched = false;
    };
    // All publications keyed by (object, version, dest), in ring order.
    std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t>,
             std::vector<Publish>>
        pubs;
    std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t>,
             std::int64_t>
        put_count;  // kPut (the memcpy) per (object, version, dest)
    // Publication sequence stream per (owner ring, object, dest).
    std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t>,
             std::vector<std::uint16_t>>
        seq_stream;
    // Package installs per (src, dst): seqs in install order.
    std::map<std::pair<std::int32_t, std::int32_t>,
             std::vector<std::int32_t>>
        install_seqs;
    std::int64_t publishes = 0, resends = 0, nacks = 0, flags = 0,
                 pkg_sends = 0, task_begins = 0;
    for (int r = 0; r < view_.num_procs(); ++r) {
      for (std::int32_t i = 0;
           i < static_cast<std::int32_t>(ring(r).size()); ++i) {
        const TraceEvent& e = ring(r)[static_cast<std::size_t>(i)];
        switch (e.kind) {
          case EventKind::kPutPublish:
          case EventKind::kResend:
            pubs[{e.a, e.b, e.c}].push_back(
                {EventRef{r, i}, e.kind, e.d, false});
            seq_stream[{r, e.a, e.c}].push_back(e.d);
            e.kind == EventKind::kResend ? ++resends : ++publishes;
            break;
          case EventKind::kPut:
            ++put_count[{e.a, e.b, e.c}];
            break;
          case EventKind::kNack:
            ++nacks;
            break;
          case EventKind::kFlagSend:
            ++flags;
            break;
          case EventKind::kAddrPkgSend:
            ++pkg_sends;
            break;
          case EventKind::kAddrPkgInstall:
            install_seqs[{e.c, r}].push_back(e.b);
            break;
          case EventKind::kTaskBegin:
            ++task_begins;
            break;
          default:
            break;
        }
      }
    }

    // Every planned send must have been published exactly once, on the
    // owner's own ring.
    for (rt::DataId d = 0; d < plan_.graph->num_data(); ++d) {
      const rt::ProcId owner = plan_.graph->data(d).owner;
      const auto& by_version = plan_.objects[d].sends_by_version;
      for (std::size_t v = 0; v < by_version.size(); ++v) {
        for (const rt::ProcId dest : by_version[v]) {
          auto it = pubs.find({d, static_cast<std::int32_t>(v), dest});
          Publish* found = nullptr;
          if (it != pubs.end()) {
            for (Publish& p : it->second) {
              if (p.ref.proc == owner && !p.matched) {
                found = &p;
                break;
              }
            }
          }
          if (found != nullptr) {
            found->matched = true;
          } else if (!ring(owner).empty()) {
            add({.rule = "CONF-MSG",
                 .object = d,
                 .proc = owner,
                 .message = cat("planned send of ", object_name(d),
                                " version ", v, " to processor ", dest,
                                " was never published in the trace"),
                 .hint = "a missing publication means the reader consumed "
                         "unreleased content (see the paired HB-RACE "
                         "finding) or the run was cancelled mid-protocol"});
          }
        }
      }
    }

    // Leftover publications: legitimate only as sequence-gated resends of
    // an already-matched publication of the same (object, version, dest).
    for (auto& [key, list] : pubs) {
      const auto [d, v, dest] = key;
      std::uint16_t matched_seq = 0;
      for (const Publish& p : list) {
        if (p.matched) matched_seq = p.seq;
      }
      for (const Publish& p : list) {
        if (p.matched) continue;
        const bool gated_resend =
            p.kind == EventKind::kResend && matched_seq != 0 &&
            p.ref.proc == plan_.graph->data(d).owner &&
            static_cast<std::uint16_t>(p.seq) >
                matched_seq;  // strictly after the original put
        if (!gated_resend) {
          add({.rule = "CONF-MSG",
               .object = d,
               .proc = static_cast<rt::ProcId>(p.ref.proc),
               .message = cat("traced put of ", object_name(d),
                              " version ", v, " to processor ", dest,
                              " (seq ", p.seq,
                              ") is outside the plan's send set"),
               .hint = "only planned sends and their sequence-gated "
                       "resends may appear on the wire"});
        }
      }
    }

    // Sequence gating: per (owner, object, dest) the put sequence stream
    // must be exactly 1, 2, 3, ... — no gaps, no replays.
    for (const auto& [key, seqs] : seq_stream) {
      const auto [r, d, dest] = key;
      if (ring_truncated(r)) continue;  // prefix seqs were overwritten
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        const auto want = static_cast<std::uint16_t>(i + 1);
        if (seqs[i] != want) {
          add({.rule = "CONF-MSG",
               .object = static_cast<rt::DataId>(d),
               .proc = static_cast<rt::ProcId>(r),
               .message = cat("put sequence for ", object_name(d),
                              " → processor ", dest, " is ", seqs[i],
                              " where ", want,
                              " was expected — resends must be gated by "
                              "consecutive sequence numbers"),
               .hint = "see docs/PROTOCOL.md, integrity and re-request "
                       "recovery"});
          break;
        }
      }
    }

    // Every payload copy must be published, and vice versa: the kPut
    // (memcpy) and kPutPublish/kResend (release) counts pair 1:1.
    for (const auto& [key, copies] : put_count) {
      const auto [d, v, dest] = key;
      const auto it = pubs.find(key);
      const std::int64_t published =
          it == pubs.end() ? 0
                           : static_cast<std::int64_t>(it->second.size());
      if (copies != published &&
          !ring_truncated(plan_.graph->data(d).owner)) {
        add({.rule = "CONF-MSG",
             .object = static_cast<rt::DataId>(d),
             .proc = plan_.graph->data(d).owner,
             .message = cat("object ", object_name(d), " version ", v,
                            " → processor ", dest, ": ", copies,
                            " payload copies but ", published,
                            " publications — a put's release store was "
                            "suppressed or forged"),
             .hint = "every RMA memcpy must be followed by exactly one "
                     "release publication (docs/RUNTIME.md)"});
      }
    }
    for (const auto& [key, list] : pubs) {
      if (put_count.find(key) == put_count.end()) {
        const auto [d, v, dest] = key;
        if (ring_truncated(list.front().ref.proc)) continue;
        add({.rule = "CONF-MSG",
             .object = static_cast<rt::DataId>(d),
             .proc = static_cast<rt::ProcId>(list.front().ref.proc),
             .message = cat("object ", object_name(d), " version ", v,
                            " → processor ", dest,
                            " was published without any payload copy"),
             .hint = "a publication with no preceding kPut means the "
                     "release store published garbage"});
      }
    }

    // Address packages: every install must match a send (unmatched ones
    // came from derive_protocol_edges), and per (src, dst) the installed
    // seqs must be strictly increasing — a replayed package that got
    // installed twice is a failed duplicate suppression.
    for (const EventRef& ref : edges_.unmatched_installs) {
      const TraceEvent& e = view_.at(ref);
      if (ring_truncated(e.c)) continue;  // its send was overwritten
      add({.rule = "CONF-MSG",
           .proc = static_cast<rt::ProcId>(ref.proc),
           .message = cat("processor ", ref.proc,
                          " installed address package seq ", e.b,
                          " from processor ", e.c,
                          " that was never sent"),
           .hint = "packages are stamped per (sender, owner); an "
                   "unmatched install is forged or corrupted"});
    }
    for (const auto& [key, seqs] : install_seqs) {
      for (std::size_t i = 1; i < seqs.size(); ++i) {
        if (seqs[i] <= seqs[i - 1]) {
          add({.rule = "CONF-MSG",
               .proc = static_cast<rt::ProcId>(key.second),
               .message = cat("processor ", key.second,
                              " installed package seq ", seqs[i],
                              " from processor ", key.first,
                              " after seq ", seqs[i - 1],
                              " — duplicate suppression failed"),
               .hint = "replayed packages must be dropped by sequence "
                       "(docs/PROTOCOL.md)"});
          break;
        }
      }
    }

    // Counter reconciliation: the trace and the RunReport describe the
    // same run, so the event counts must agree exactly. Skipped on
    // overflow (traced counts become lower bounds).
    if (options_.report != nullptr && !view_.truncated()) {
      const rt::RunReport& rep = *options_.report;
      const auto reconcile = [this](const char* what, std::int64_t traced,
                                    std::int64_t reported) {
        if (traced == reported) return;
        add({.rule = "CONF-MSG",
             .message = cat(what, ": trace shows ", traced,
                            " but the run report counted ", reported),
             .hint = "trace events and counters are written by the same "
                     "worker; a divergence is a lost event or a phantom "
                     "counter bump"});
      };
      reconcile("content messages (kPutPublish + kResend)",
                publishes + resends, rep.content_messages);
      reconcile("resends (kResend)", resends, rep.recovery.resends);
      reconcile("re-requests (kNack)", nacks, rep.recovery.nacks_sent);
      reconcile("flag sends (kFlagSend)", flags, rep.flag_messages);
      reconcile("address packages (kAddrPkgSend)", pkg_sends,
                rep.addr_packages);
      reconcile("task executions (kTaskBegin)", task_begins,
                rep.tasks_executed);
    }
  }

  // -- HB-RACE: the vector-clock questions --------------------------------

  void check_races() {
    for (const EventRef& ref : edges_.unmatched_consumes) {
      const TraceEvent& e = view_.at(ref);
      if (ring_truncated(e.c)) continue;  // publication was overwritten
      add({.rule = "HB-RACE",
           .object = static_cast<rt::DataId>(e.a),
           .proc = static_cast<rt::ProcId>(ref.proc),
           .message = cat("processor ", ref.proc, " consumed ",
                          object_name(e.a), " version ", e.b,
                          " with no publication happens-before it — the "
                          "read is not ordered after any release of that "
                          "content"),
           .hint = "a consume must be hb-after the put's release "
                   "publication (docs/RUNTIME.md, content put ordering)"});
    }

    const HbGraph hb(view_, edges_.edges);
    if (!hb.consistent()) {
      add({.rule = "HB-RACE",
           .message = "the trace's happens-before edges form a cycle — "
                      "impossible for a real run, so the trace is "
                      "corrupted; race queries were skipped",
           .hint = "re-record the trace; real synchronization cannot be "
                   "cyclic"});
      return;
    }

    // Per reader ring: every consume of an object must precede the MAP
    // free of its region, and every publication into that region must be
    // hb-before the free (a late resend memcpy into recycled heap is the
    // killer bug class for volatile regions).
    for (int r = 0; r < plan_.num_procs; ++r) {
      // object → publications targeting (object, dest=r), any ring.
      std::map<std::int32_t, std::vector<EventRef>> pubs_into_r;
      for (int o = 0; o < view_.num_procs(); ++o) {
        for (std::int32_t i = 0;
             i < static_cast<std::int32_t>(ring(o).size()); ++i) {
          const TraceEvent& e = ring(o)[static_cast<std::size_t>(i)];
          if ((e.kind == EventKind::kPutPublish ||
               e.kind == EventKind::kResend) &&
              e.c == r) {
            pubs_into_r[e.a].push_back(EventRef{o, i});
          }
        }
      }
      for (std::int32_t i = 0;
           i < static_cast<std::int32_t>(ring(r).size()); ++i) {
        const TraceEvent& f = ring(r)[static_cast<std::size_t>(i)];
        if (f.kind != EventKind::kMapFree) continue;
        const EventRef free_ref{r, i};
        // Reads after the free, in the reader's own program order.
        for (std::int32_t j = i + 1;
             j < static_cast<std::int32_t>(ring(r).size()); ++j) {
          const TraceEvent& e = ring(r)[static_cast<std::size_t>(j)];
          if (e.kind == EventKind::kConsume && e.a == f.a) {
            add({.rule = "HB-RACE",
                 .object = static_cast<rt::DataId>(f.a),
                 .proc = static_cast<rt::ProcId>(r),
                 .message = cat("processor ", r, " consumed ",
                                object_name(f.a), " version ", e.b,
                                " AFTER the MAP freed its region — a "
                                "use-after-free across volatile heap "
                                "reuse"),
                 .hint = "the MAP may only free an object past its last "
                         "consumer (liveness last_pos)"});
          }
        }
        // Publications into the region must be ordered before the free.
        const auto it = pubs_into_r.find(f.a);
        if (it == pubs_into_r.end()) continue;
        for (const EventRef& pub : it->second) {
          if (!hb.happens_before(pub, free_ref)) {
            add({.rule = "HB-RACE",
                 .object = static_cast<rt::DataId>(f.a),
                 .proc = static_cast<rt::ProcId>(r),
                 .message = cat("publication of ", object_name(f.a),
                                " version ", view_.at(pub).b,
                                " by processor ", pub.proc,
                                " is not happens-before the MAP free of "
                                "its destination region on processor ", r,
                                " — the put may land in recycled heap"),
                 .hint = "a put must be consumed (or provably dead) "
                         "before its destination region is freed"});
          }
        }
      }
    }
  }

  // -- CONF-CAP: traced byte deltas vs the symbolic replay ----------------

  void check_capacity() {
    if (options_.capacity_per_proc <= 0) return;
    for (rt::ProcId p = 0; p < plan_.num_procs; ++p) {
      if (!replay_ok_[static_cast<std::size_t>(p)]) continue;
      if (ring(p).empty()) continue;  // untraced ring
      // Parse the traced kMapBegin..kMapEnd groups.
      std::vector<MapTraced> traced;
      bool open = false;
      for (const TraceEvent& e : ring(p)) {
        switch (e.kind) {
          case EventKind::kMapBegin:
            traced.push_back({e.a, 0, 0, -1});
            open = true;
            break;
          case EventKind::kMapFree:
            if (open) traced.back().freed_bytes += e.bytes;
            break;
          case EventKind::kMapAlloc:
            if (open) traced.back().alloc_bytes += e.bytes;
            break;
          case EventKind::kMapEnd:
            open = false;
            break;
          case EventKind::kHeapSample:
            if (!open && !traced.empty() &&
                traced.back().sample_after < 0) {
              traced.back().sample_after = e.bytes;
            }
            break;
          default:
            break;
        }
      }
      if (!options_.active_memory) {
        if (!traced.empty()) {
          add({.rule = "CONF-CAP",
               .proc = p,
               .message = cat("processor ", p, " traced ", traced.size(),
                              " MAPs in baseline (preallocated) mode — "
                              "no MAP may run"),
               .hint = "active_memory false preallocates every volatile "
                       "at start"});
        }
        continue;
      }
      const auto& expected = expected_maps_[static_cast<std::size_t>(p)];
      if (!ring_truncated(p) && traced.size() != expected.size()) {
        add({.rule = "CONF-CAP",
             .proc = p,
             .message = cat("processor ", p, " traced ", traced.size(),
                            " MAPs but the symbolic replay schedules ",
                            expected.size()),
             .hint = "capacity/alignment/policy options must match the "
                     "run's RunConfig"});
        continue;
      }
      if (traced.size() > expected.size()) continue;  // truncated & odd
      // Align the traced groups with the replay's tail (identical when
      // nothing was dropped).
      const std::size_t offset = expected.size() - traced.size();
      for (std::size_t k = 0; k < traced.size(); ++k) {
        const MapTraced& got = traced[k];
        const MapExpect& want = expected[offset + k];
        if (got.pos != want.pos || got.freed_bytes != want.freed_bytes ||
            got.alloc_bytes != want.alloc_bytes) {
          add({.rule = "CONF-CAP",
               .proc = p,
               .position = got.pos,
               .message = cat("processor ", p, " MAP #", offset + k,
                              " traced (pos ", got.pos, ", freed ",
                              got.freed_bytes, " B, allocated ",
                              got.alloc_bytes,
                              " B) but the symbolic replay predicts (pos ",
                              want.pos, ", freed ", want.freed_bytes,
                              " B, allocated ", want.alloc_bytes, " B)"),
               .hint = "per-processor MAP byte deltas are deterministic; "
                       "a divergence is a checker/run config mismatch or "
                       "a corrupted trace"});
          break;
        }
        if (got.sample_after >= 0 &&
            got.sample_after != want.in_use_after) {
          add({.rule = "CONF-CAP",
               .proc = p,
               .position = got.pos,
               .message = cat("processor ", p, " sampled ",
                              got.sample_after, " bytes in use after the "
                              "MAP at position ", got.pos,
                              " but the symbolic replay predicts ",
                              want.in_use_after),
               .hint = "arena occupancy after a MAP is a pure function "
                       "of the plan and the capacity"});
          break;
        }
      }
    }
  }

  const rt::RunPlan& plan_;
  const TraceView& view_;
  const ConformanceOptions& options_;
  ProtocolEdges edges_;
  AuditReport report_;
  std::map<std::string, std::int32_t> rule_counts_;
  /// Symbolic replay results (capacity mode only).
  std::vector<std::vector<MapExpect>> expected_maps_;
  std::vector<bool> replay_ok_;
  std::vector<std::int64_t> baseline_in_use_;
};

}  // namespace

AuditReport check_conformance(const rt::RunPlan& plan, const TraceView& view,
                              const ConformanceOptions& options) {
  return Checker(plan, view, options).run();
}

AuditReport check_conformance(const rt::RunPlan& plan,
                              const obs::Trace& trace,
                              const ConformanceOptions& options) {
  const TraceView view = TraceView::from(trace);
  return Checker(plan, view, options).run();
}

}  // namespace rapid::verify
