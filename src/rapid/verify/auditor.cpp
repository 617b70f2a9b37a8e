#include "rapid/verify/auditor.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>

#include "rapid/rt/map_engine.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/str.hpp"

namespace rapid::verify {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "INFO";
    case Severity::kWarning:
      return "WARNING";
    case Severity::kError:
      return "ERROR";
  }
  return "?";
}

int AuditReport::errors() const {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kError;
      }));
}

int AuditReport::warnings() const {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kWarning;
      }));
}

const Finding* AuditReport::find(const std::string& rule) const {
  for (const Finding& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

std::string AuditReport::summary() const {
  const int e = errors();
  const int w = warnings();
  if (e == 0 && w == 0) return "plan audit: clean";
  return cat("plan audit: ", e, e == 1 ? " error, " : " errors, ", w,
             w == 1 ? " warning" : " warnings");
}

std::string AuditReport::to_string() const {
  std::string out = summary();
  out += "\n";
  for (const Finding& f : findings) {
    out += cat("[", severity_name(f.severity), "] ", f.rule);
    if (f.proc != graph::kInvalidProc) out += cat(" proc ", f.proc);
    if (f.position >= 0) out += cat(" pos ", f.position);
    if (f.task != graph::kInvalidTask) out += cat(" task ", f.task);
    if (f.object != graph::kInvalidData) out += cat(" object ", f.object);
    out += cat(": ", f.message, "\n");
    if (!f.hint.empty()) out += cat("  hint: ", f.hint, "\n");
  }
  return out;
}

namespace {

using rt::RunPlan;
using sched::Schedule;

/// Reachability closure over the transformed graph: one bitset row per
/// task, filled in reverse topological order. reaches(a, b) answers
/// "is there a dependence path from a to b" in O(1).
class Reachability {
 public:
  Reachability(const graph::TaskGraph& graph,
               const std::vector<TaskId>& topo_order)
      : n_(graph.num_tasks()),
        words_(static_cast<std::size_t>(n_ + 63) / 64),
        bits_(static_cast<std::size_t>(n_) * words_, 0) {
    for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
      const TaskId t = *it;
      std::uint64_t* row = bits_.data() + words_ * static_cast<std::size_t>(t);
      for (const std::int32_t ei : graph.out_edges(t)) {
        const TaskId succ = graph.edges()[ei].dst;
        const std::uint64_t* succ_row =
            bits_.data() + words_ * static_cast<std::size_t>(succ);
        for (std::size_t w = 0; w < words_; ++w) row[w] |= succ_row[w];
        row[static_cast<std::size_t>(succ) / 64] |=
            std::uint64_t{1} << (static_cast<std::size_t>(succ) % 64);
      }
    }
  }

  bool reaches(TaskId a, TaskId b) const {
    const std::uint64_t* row = bits_.data() + words_ * static_cast<std::size_t>(a);
    return (row[static_cast<std::size_t>(b) / 64] >>
            (static_cast<std::size_t>(b) % 64)) &
           1;
  }

 private:
  TaskId n_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// Independent re-derivation of the write-epoch structure from the access
/// sets alone (same semantics as the plan builder's grouping, reimplemented
/// here so the auditor does not trust the component it audits): a writer
/// joins the current epoch iff it shares a non-negative commute group and
/// no pure reader of the object sits between it and the previous member in
/// program order.
std::vector<std::vector<TaskId>> derive_epochs(const graph::TaskGraph& graph,
                                               DataId d) {
  std::vector<TaskId> pure_readers;
  for (TaskId r : graph.readers(d)) {
    const auto& writes = graph.task(r).writes;
    if (!std::binary_search(writes.begin(), writes.end(), d)) {
      pure_readers.push_back(r);
    }
  }
  auto reader_between = [&pure_readers](TaskId a, TaskId b) {
    auto it = std::upper_bound(pure_readers.begin(), pure_readers.end(), a);
    return it != pure_readers.end() && *it < b;
  };
  std::vector<std::vector<TaskId>> epochs;
  std::int32_t current_group = -2;
  for (TaskId w : graph.writers(d)) {
    const std::int32_t g = graph.task(w).commute_group;
    if (!epochs.empty() && g >= 0 && g == current_group &&
        !reader_between(epochs.back().back(), w)) {
      epochs.back().push_back(w);
    } else {
      epochs.push_back({w});
      current_group = g >= 0 ? g : -2;
    }
  }
  return epochs;
}

/// One MAP observed by the symbolic capacity replay, with the owners its
/// address packages go to; input of the MBX-CROSS analysis.
struct MapEvent {
  ProcId proc = graph::kInvalidProc;
  std::int32_t pos = 0;
  std::vector<ProcId> package_dests;
  /// Volatiles this MAP allocated, and the position its allocated prefix
  /// reaches — inputs of the REC-CROSS analysis, which must know which
  /// remote reads the crossed MAP gates.
  std::vector<DataId> allocated;
  std::int32_t alloc_upto = 0;
};

class Auditor {
 public:
  Auditor(const graph::TaskGraph& graph, const Schedule& schedule,
          const RunPlan& plan, const AuditOptions& options)
      : graph_(graph), schedule_(schedule), plan_(plan), options_(options) {}

  AuditReport run() {
    check_shapes();
    check_schedule();
    if (index_ok_) {
      check_epochs_and_versions();
      check_messages();
      check_liveness();
      // The capacity replay drives the real MAP engine with the plan's
      // lifetime table; replaying against a table already known to be
      // broken would crash or produce nonsense findings.
      std::vector<MapEvent> maps;
      if (!has_live_errors()) {
        maps = check_capacity();
      } else if (options_.capacity_per_proc > 0) {
        add({.rule = "CAP-SKIPPED",
             .severity = Severity::kInfo,
             .message = "capacity replay skipped: the lifetime table has "
                        "LIVE-* errors, so MAP behaviour is undefined",
             .hint = "fix the lifetime findings first, then re-audit"});
      }
      check_dependence_completeness();
      check_mailbox_crossings(maps);
    }
    flush_truncation_notes();
    return std::move(report_);
  }

 private:
  void add(Finding finding) {
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

  bool has_live_errors() const {
    for (const Finding& f : report_.findings) {
      if (f.severity == Severity::kError && f.rule.rfind("LIVE-", 0) == 0) {
        return true;
      }
    }
    return false;
  }

  const std::string& task_name(TaskId t) const { return graph_.task(t).name; }
  const std::string& data_name(DataId d) const { return graph_.data(d).name; }

  // -- structural prerequisites (throw: auditing is impossible without) ---

  void check_shapes() {
    RAPID_CHECK(schedule_.num_procs > 0, "schedule has no processors");
    RAPID_CHECK(plan_.num_procs == schedule_.num_procs,
                "plan/schedule processor count mismatch");
    RAPID_CHECK(static_cast<TaskId>(plan_.tasks.size()) == graph_.num_tasks(),
                "plan task count != graph task count");
    RAPID_CHECK(static_cast<DataId>(plan_.objects.size()) == graph_.num_data(),
                "plan object count != graph object count");
    RAPID_CHECK(static_cast<int>(plan_.procs.size()) == plan_.num_procs,
                "plan processor table size mismatch");
  }

  // -- SCHED-*: the schedule itself -------------------------------------

  void check_schedule() {
    // Placement: every task exactly once, consistent with the index.
    std::vector<int> seen(static_cast<std::size_t>(graph_.num_tasks()), 0);
    for (ProcId p = 0; p < schedule_.num_procs; ++p) {
      for (std::size_t pos = 0; pos < schedule_.order[p].size(); ++pos) {
        const TaskId t = schedule_.order[p][pos];
        if (t < 0 || t >= graph_.num_tasks()) {
          add({.rule = "SCHED-PLACE",
               .proc = p,
               .position = static_cast<std::int32_t>(pos),
               .message = cat("unknown task id ", t, " in the order"),
               .hint = "rebuild the schedule from the graph"});
          index_ok_ = false;
          continue;
        }
        ++seen[static_cast<std::size_t>(t)];
      }
    }
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      if (seen[static_cast<std::size_t>(t)] != 1) {
        add({.rule = "SCHED-PLACE",
             .task = t,
             .message = cat("task '", task_name(t), "' scheduled ",
                            seen[static_cast<std::size_t>(t)],
                            " times (must be exactly once)"),
             .hint = "every task must appear exactly once across the "
                     "processor orders"});
        index_ok_ = false;
      }
    }
    if (static_cast<TaskId>(schedule_.proc_of_task.size()) !=
            graph_.num_tasks() ||
        static_cast<TaskId>(schedule_.pos_of_task.size()) !=
            graph_.num_tasks()) {
      add({.rule = "SCHED-PLACE",
           .message = "schedule index not built (call rebuild_index)",
           .hint = "Schedule::rebuild_index(num_tasks) before planning"});
      index_ok_ = false;
    }
    if (!index_ok_) return;

    // Same-processor dependences must go forward in the order (Theorem 1
    // assumes the per-processor order is a linear extension locally).
    for (const graph::Edge& e : graph_.edges()) {
      if (e.redundant) continue;
      const ProcId p = schedule_.proc_of_task[e.src];
      if (p != schedule_.proc_of_task[e.dst]) continue;
      if (schedule_.pos_of_task[e.src] >= schedule_.pos_of_task[e.dst]) {
        add({.rule = "SCHED-ORDER",
             .task = e.dst,
             .object = e.object,
             .proc = p,
             .position = schedule_.pos_of_task[e.dst],
             .message = cat(graph::dep_kind_name(e.kind), " dependence '",
                            task_name(e.src), "' -> '", task_name(e.dst),
                            "' runs backwards in processor ", p, "'s order"),
             .hint = "the ordering stage must emit a linear extension of "
                     "the transformed graph"});
      }
    }

    // Owner-compute: writers on the owner; plan permanents match owners.
    for (DataId d = 0; d < graph_.num_data(); ++d) {
      const ProcId owner = graph_.data(d).owner;
      if (owner < 0 || owner >= schedule_.num_procs) {
        add({.rule = "SCHED-OWNER",
             .object = d,
             .message = cat("object '", data_name(d), "' has no valid owner"),
             .hint = "run the mapping stage before scheduling"});
        continue;
      }
      for (TaskId w : graph_.writers(d)) {
        if (schedule_.proc_of_task[w] != owner) {
          add({.rule = "SCHED-OWNER",
               .task = w,
               .object = d,
               .proc = schedule_.proc_of_task[w],
               .message = cat("task '", task_name(w), "' writes '",
                              data_name(d), "' but runs on processor ",
                              schedule_.proc_of_task[w], ", not owner ",
                              owner),
               .hint = "owner-compute clustering must place all writers of "
                       "an object on its owner"});
        }
      }
    }
    for (ProcId p = 0; p < plan_.num_procs; ++p) {
      for (DataId d : plan_.procs[p].permanents) {
        if (graph_.data(d).owner != p) {
          add({.rule = "SCHED-OWNER",
               .object = d,
               .proc = p,
               .message = cat("plan lists '", data_name(d),
                              "' permanent on processor ", p,
                              " but its owner is ", graph_.data(d).owner),
               .hint = "rebuild the run plan after changing owners"});
        }
      }
    }
  }

  // -- VER-*: epoch structure and version monotonicity --------------------

  void check_epochs_and_versions() {
    for (DataId d = 0; d < graph_.num_data(); ++d) {
      derived_epochs_.push_back(derive_epochs(graph_, d));
      const auto& expect = derived_epochs_.back();
      const auto& got = plan_.objects[d].epochs;
      if (got != expect) {
        add({.rule = "VER-EPOCH",
             .object = d,
             .message = cat("plan epochs of '", data_name(d),
                            "' disagree with the access history (", got.size(),
                            " epochs in plan, ", expect.size(), " derived)"),
             .hint = "the plan's epoch grouping must partition the writers "
                     "in program order, split at interleaved readers"});
      }
    }
    // Required versions must be in range and monotone non-decreasing along
    // each processor's order: a task needing an *older* version than an
    // earlier task on the same processor contradicts the anti-ordering that
    // makes suspended sends safe (PROTOCOL.md, "why no stale data").
    for (ProcId p = 0; p < schedule_.num_procs; ++p) {
      std::unordered_map<DataId, std::int32_t> last_required;
      for (std::size_t pos = 0; pos < schedule_.order[p].size(); ++pos) {
        const TaskId t = schedule_.order[p][pos];
        for (const rt::RemoteRead& rr : plan_.tasks[t].remote_reads) {
          const std::int32_t num_versions =
              plan_.objects[rr.object].num_versions();
          if (rr.version < 0 || rr.version > num_versions) {
            add({.rule = "VER-RANGE",
                 .task = t,
                 .object = rr.object,
                 .proc = p,
                 .position = static_cast<std::int32_t>(pos),
                 .message = cat("task '", task_name(t), "' requires version ",
                                rr.version, " of '", data_name(rr.object),
                                "', which has versions 0..", num_versions),
                 .hint = "remote-read versions come from "
                         "version_of_writer over true in-edges"});
            continue;
          }
          auto [it, inserted] = last_required.try_emplace(rr.object,
                                                          rr.version);
          if (!inserted) {
            if (rr.version < it->second) {
              add({.rule = "VER-MONO",
                   .task = t,
                   .object = rr.object,
                   .proc = p,
                   .position = static_cast<std::int32_t>(pos),
                   .message = cat("task '", task_name(t), "' requires version ",
                                  rr.version, " of '", data_name(rr.object),
                                  "' after an earlier task on processor ", p,
                                  " already required version ", it->second),
                   .hint = "versions must be non-decreasing along each "
                           "processor's order; the schedule breaks the "
                           "reader/writer anti-ordering"});
            }
            it->second = std::max(it->second, rr.version);
          }
        }
      }
    }
  }

  // -- MSG-*: send/receive matching ---------------------------------------

  void check_messages() {
    std::set<std::tuple<DataId, std::int32_t, ProcId>> needed;
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      for (const rt::RemoteRead& rr : plan_.tasks[t].remote_reads) {
        if (rr.version < 0 ||
            rr.version > plan_.objects[rr.object].num_versions()) {
          continue;  // already reported by VER-RANGE
        }
        needed.emplace(rr.object, rr.version, schedule_.proc_of_task[t]);
      }
    }
    std::set<std::tuple<DataId, std::int32_t, ProcId>> sent;
    for (DataId d = 0; d < graph_.num_data(); ++d) {
      const auto& by_version = plan_.objects[d].sends_by_version;
      for (std::size_t v = 0; v < by_version.size(); ++v) {
        for (ProcId dest : by_version[v]) {
          sent.emplace(d, static_cast<std::int32_t>(v), dest);
        }
      }
    }
    for (const auto& [d, v, p] : needed) {
      if (!sent.count({d, v, p})) {
        add({.rule = "MSG-RECV",
             .object = d,
             .proc = p,
             .message = cat("processor ", p, " waits for version ", v, " of '",
                            data_name(d),
                            "' but no ContentSend delivers it — the reader "
                            "would block in REC forever"),
             .hint = "every RemoteRead needs a matching entry in "
                     "sends_by_version"});
      }
    }
    for (const auto& [d, v, p] : sent) {
      if (p == graph_.data(d).owner) {
        add({.rule = "MSG-SEND",
             .object = d,
             .proc = p,
             .message = cat("owner ", p, " sends version ", v, " of '",
                            data_name(d), "' to itself"),
             .hint = "owners read their permanents directly; no message is "
                     "needed"});
      } else if (!needed.count({d, v, p})) {
        add({.rule = "MSG-SEND",
             .object = d,
             .proc = p,
             .message = cat("ContentSend of '", data_name(d), "' version ", v,
                            " to processor ", p,
                            " has no matching RemoteRead — the destination "
                            "never allocates a buffer, so the send would "
                            "suspend forever"),
             .hint = "drop the send or add the reader that needs it"});
      }
    }
    // Initial sends: each owner must push exactly the version-0 fan-out.
    std::set<std::tuple<DataId, ProcId>> initial_expected;
    for (DataId d = 0; d < graph_.num_data(); ++d) {
      if (plan_.objects[d].sends_by_version.empty()) continue;
      for (ProcId dest : plan_.objects[d].sends_by_version[0]) {
        initial_expected.emplace(d, dest);
      }
    }
    std::set<std::tuple<DataId, ProcId>> initial_planned;
    for (ProcId p = 0; p < plan_.num_procs; ++p) {
      for (const rt::ContentSend& cs : plan_.procs[p].initial_sends) {
        if (graph_.data(cs.object).owner != p || cs.version != 0) {
          add({.rule = "MSG-INIT",
               .object = cs.object,
               .proc = p,
               .message = cat("initial send of '", data_name(cs.object),
                              "' version ", cs.version, " issued by processor ",
                              p, " (owner is ", graph_.data(cs.object).owner,
                              ", initial version must be 0)"),
               .hint = "initial sends are version-0 pushes by the owner"});
        }
        initial_planned.emplace(cs.object, cs.dest);
      }
    }
    for (const auto& [d, dest] : initial_expected) {
      if (!initial_planned.count({d, dest})) {
        add({.rule = "MSG-INIT",
             .object = d,
             .proc = dest,
             .message = cat("processor ", dest, " reads the initial content "
                            "of '", data_name(d),
                            "' but the owner plans no version-0 send"),
             .hint = "ProcPlan::initial_sends must cover sends_by_version[0]"});
      }
    }
  }

  // -- LIVE-*: volatile lifetime windows ----------------------------------

  void check_liveness() {
    const sched::LivenessTable recomputed =
        sched::analyze_liveness(graph_, schedule_);
    for (ProcId p = 0; p < plan_.num_procs; ++p) {
      // Plan windows vs the recomputed dead points.
      std::map<DataId, sched::VolatileLifetime> expect;
      for (const auto& v : recomputed.procs[p].volatiles) {
        expect.emplace(v.object, v);
      }
      std::map<DataId, sched::VolatileLifetime> got;
      for (const auto& v : plan_.procs[p].volatiles) got.emplace(v.object, v);
      for (const auto& [d, e] : expect) {
        const auto it = got.find(d);
        if (it == got.end()) {
          add({.rule = "LIVE-WINDOW",
               .object = d,
               .proc = p,
               .message = cat("volatile '", data_name(d),
                              "' is accessed on processor ", p,
                              " but has no lifetime entry in the plan"),
               .hint = "rebuild the plan's liveness table"});
          continue;
        }
        const auto& g = it->second;
        if (g.first_pos != e.first_pos || g.last_pos != e.last_pos ||
            g.size_bytes != e.size_bytes) {
          add({.rule = "LIVE-WINDOW",
               .object = d,
               .proc = p,
               .position = g.first_pos,
               .message = cat("lifetime of volatile '", data_name(d),
                              "' on processor ", p, " is [", g.first_pos, ", ",
                              g.last_pos, "] (", g.size_bytes,
                              " bytes) in the plan but [", e.first_pos, ", ",
                              e.last_pos, "] (", e.size_bytes,
                              " bytes) by the dead-point analysis"),
               .hint = "a shifted window frees live data (use-after-free) or "
                       "holds dead data (capacity loss); recompute liveness"});
        }
      }
      for (const auto& [d, g] : got) {
        if (!expect.count(d)) {
          add({.rule = "LIVE-WINDOW",
               .object = d,
               .proc = p,
               .message = cat("plan lists volatile '", data_name(d),
                              "' on processor ", p,
                              " which never accesses it"),
               .hint = "stale lifetime entry; rebuild the plan"});
        }
      }
      // Direct window check: every volatile access must fall inside its
      // window — outside it the MAP engine has not allocated the buffer yet
      // (use-before-alloc) or has already recycled it (use-after-free).
      const auto n = static_cast<std::int32_t>(schedule_.order[p].size());
      for (std::int32_t pos = 0; pos < n; ++pos) {
        const TaskId t = schedule_.order[p][pos];
        for (DataId d : plan_.tasks[t].volatile_accesses) {
          const auto it = got.find(d);
          if (it == got.end()) {
            add({.rule = "LIVE-MISSING",
                 .task = t,
                 .object = d,
                 .proc = p,
                 .position = pos,
                 .message = cat("task '", task_name(t),
                                "' accesses volatile '", data_name(d),
                                "' which has no lifetime on processor ", p),
                 .hint = "every volatile access needs a lifetime window"});
            continue;
          }
          if (pos < it->second.first_pos) {
            add({.rule = "LIVE-BEFORE",
                 .task = t,
                 .object = d,
                 .proc = p,
                 .position = pos,
                 .message = cat("task '", task_name(t), "' uses volatile '",
                                data_name(d), "' at position ", pos,
                                " before its window opens at ",
                                it->second.first_pos, " (use-before-alloc)"),
                 .hint = "the MAP engine only allocates inside the window; "
                         "widen first_pos to the first access"});
          } else if (pos > it->second.last_pos) {
            add({.rule = "LIVE-AFTER",
                 .task = t,
                 .object = d,
                 .proc = p,
                 .position = pos,
                 .message = cat("task '", task_name(t), "' uses volatile '",
                                data_name(d), "' at position ", pos,
                                " after its dead point ", it->second.last_pos,
                                " (use-after-free)"),
                 .hint = "the MAP engine recycles the buffer after last_pos; "
                         "widen last_pos to the last access"});
          }
        }
      }
    }
  }

  // -- CAP-*: symbolic MAP replay (Def. 6 feasibility) --------------------

  std::vector<MapEvent> check_capacity() {
    std::vector<MapEvent> events;
    if (options_.capacity_per_proc <= 0) return events;
    const std::int64_t capacity = options_.capacity_per_proc;
    for (ProcId p = 0; p < plan_.num_procs; ++p) {
      std::unique_ptr<rt::ProcMemory> memory;
      try {
        memory = std::make_unique<rt::ProcMemory>(plan_, p, capacity,
                                                  /*alignment=*/1,
                                                  options_.alloc_policy,
                                                  options_.slab_arena);
      } catch (const rt::NonExecutableError&) {
        add({.rule = "CAP-PERM",
             .proc = p,
             .message = cat("permanent objects need ",
                            plan_.procs[p].permanent_bytes,
                            " bytes, capacity is ", capacity, " (short by ",
                            plan_.procs[p].permanent_bytes - capacity,
                            " bytes)"),
             .hint = "permanent space counts for the whole run (Def. 5); "
                     "raise the capacity or spread ownership"});
        continue;
      }
      if (!options_.active_memory) {
        try {
          memory->preallocate_all();
        } catch (const rt::NonExecutableError&) {
          std::int64_t vol_total = 0;
          for (const auto& v : plan_.procs[p].volatiles) {
            vol_total += v.size_bytes;
          }
          add({.rule = "CAP-TOT",
               .proc = p,
               .message = cat("baseline preallocation needs ",
                              plan_.procs[p].permanent_bytes + vol_total,
                              " bytes, capacity is ", capacity),
               .hint = "the no-recycling footprint TOT exceeds the capacity; "
                       "enable active memory management"});
        }
        continue;
      }
      const auto n = static_cast<std::int32_t>(plan_.procs[p].order.size());
      for (std::int32_t pos = 0; pos < n; ++pos) {
        if (!memory->needs_map(pos)) continue;
        try {
          const rt::MapResult map = memory->perform_map(pos);
          if (!map.packages.empty()) {
            MapEvent event;
            event.proc = p;
            event.pos = pos;
            event.allocated = map.allocated;
            event.alloc_upto = map.alloc_upto;
            for (const auto& [owner, pkg] : map.packages) {
              (void)pkg;
              event.package_dests.push_back(owner);
            }
            events.push_back(std::move(event));
          }
        } catch (const rt::NonExecutableError&) {
          // perform_map already freed every dead volatile and rolled back
          // the failing task's partial allocations, so the arena now shows
          // exactly the live bytes Def. 6 charges at this position.
          const TaskId t = plan_.procs[p].order[pos];
          std::int64_t needed = 0;
          DataId worst = graph::kInvalidData;
          for (DataId d : plan_.tasks[t].volatile_accesses) {
            if (!memory->is_allocated(d)) {
              needed += graph_.data(d).size_bytes;
              if (worst == graph::kInvalidData ||
                  graph_.data(d).size_bytes > graph_.data(worst).size_bytes) {
                worst = d;
              }
            }
          }
          const std::int64_t free_bytes =
              capacity - memory->arena().in_use();
          const std::int64_t shortfall = needed - free_bytes;
          const std::int64_t largest =
              memory->arena().stats().largest_free_block;
          add({.rule = "CAP-MAP",
               .task = t,
               .object = worst,
               .proc = p,
               .position = pos,
               .message = cat(
                   "MAP before task '", task_name(t), "' cannot allocate its ",
                   needed, " volatile bytes: ", free_bytes,
                   " bytes free after recycling",
                   shortfall > 0
                       ? cat(", short by ", shortfall, " bytes")
                       : cat(" but fragmented (largest free block ", largest,
                             " bytes)"),
                   " — the schedule is non-executable under Def. 6 at "
                   "capacity ",
                   capacity),
               .hint = shortfall > 0
                           ? cat("raise capacity_per_proc by at least ",
                                 shortfall,
                                 " bytes, or use a memory-aware ordering "
                                 "(MPO/DTS) to lower MEM_REQ")
                           : "peak bytes fit but placement fragments the "
                             "arena; try AllocPolicy::kBestFit or a small "
                             "capacity margin"});
          break;  // this processor cannot get past `pos`
        }
      }
    }
    return events;
  }

  // -- DEP-*: dependence completeness of the transformed graph -----------

  void check_dependence_completeness() {
    if (graph_.num_tasks() > options_.max_reachability_tasks) {
      add({.rule = "DEP-SKIPPED",
           .severity = Severity::kInfo,
           .message = cat("graph has ", graph_.num_tasks(), " tasks (cap ",
                          options_.max_reachability_tasks,
                          "); DEP-RAW/WAR/WAW and MBX-CROSS were skipped"),
           .hint = "raise AuditOptions::max_reachability_tasks to audit "
                   "dependence completeness on this graph"});
      return;
    }
    std::vector<TaskId> topo;
    try {
      topo = graph_.topological_order();
    } catch (const Error& e) {
      add({.rule = "DEP-CYCLE",
           .message = cat("transformed dependence graph is cyclic: ",
                          e.what()),
           .hint = "the inspector must emit a DAG; check commute-group "
                   "registration"});
      return;
    }
    reach_ = std::make_unique<Reachability>(graph_, topo);

    // Dependence completeness, object by object. Path coverage is
    // transitive, so covering (a) consecutive epochs and (b) each pure
    // reader against its neighbouring epochs covers every RAW/WAR/WAW pair.
    for (DataId d = 0; d < graph_.num_data(); ++d) {
      const auto& epochs = derived_epochs_[static_cast<std::size_t>(d)];
      for (std::size_t v = 0; v + 1 < epochs.size(); ++v) {
        for (TaskId a : epochs[v]) {
          for (TaskId b : epochs[v + 1]) {
            if (!reach_->reaches(a, b)) {
              add({.rule = "DEP-WAW",
                   .task = b,
                   .object = d,
                   .message = cat("writers '", task_name(a), "' (epoch ",
                                  v + 1, ") and '", task_name(b), "' (epoch ",
                                  v + 2, ") of '", data_name(d),
                                  "' are unordered — versions ", v + 1,
                                  " and ", v + 2, " could be produced in "
                                  "either order"),
                   .hint = "the inspector must emit an output/true edge (or "
                           "path) between consecutive epochs"});
            }
          }
        }
      }
      for (TaskId r : graph_.readers(d)) {
        const auto& writes = graph_.task(r).writes;
        if (std::binary_search(writes.begin(), writes.end(), d)) continue;
        // Epochs never straddle a pure reader (an interleaved reader splits
        // them), so "the epoch before r" is well defined.
        std::size_t before = 0;
        while (before < epochs.size() && epochs[before].back() < r) ++before;
        if (before > 0) {
          for (TaskId w : epochs[before - 1]) {
            if (!reach_->reaches(w, r)) {
              add({.rule = "DEP-RAW",
                   .task = r,
                   .object = d,
                   .message = cat("reader '", task_name(r),
                                  "' is not ordered after writer '",
                                  task_name(w), "' of '", data_name(d),
                                  "' — it could read version ", before - 1,
                                  " instead of ", before),
                   .hint = "a true dependence edge (or subsuming path) from "
                           "every program-order-earlier writer is required"});
            }
          }
        }
        if (before < epochs.size()) {
          for (TaskId w : epochs[before]) {
            if (!reach_->reaches(r, w)) {
              add({.rule = "DEP-WAR",
                   .task = w,
                   .object = d,
                   .message = cat("writer '", task_name(w), "' of '",
                                  data_name(d),
                                  "' is not ordered after reader '",
                                  task_name(r), "' — the writer could "
                                  "overwrite the value (or overtake the "
                                  "suspended message) the reader still "
                                  "needs"),
                   .hint = "a kept anti edge (or subsuming true path) from "
                           "the reader into the next epoch is required"});
            }
          }
        }
      }
    }
  }

  // -- MBX-CROSS: crossed single-slot address-package waits ---------------

  void check_mailbox_crossings(const std::vector<MapEvent>& events) {
    if (options_.mailbox_slots != 1 || !reach_ || events.size() > 5000) {
      return;
    }
    // Two MAPs' package waits "cross" when each sends into the other's
    // processor and no dependence forces one MAP to finish before the other
    // starts. Theorem 1 tolerates the cross because every blocking state
    // services RA — so this is a WARNING spotlighting where the protocol's
    // liveness argument is actually load-bearing, not an error.
    auto ordered = [&](const MapEvent& first, const MapEvent& second) {
      // `first` completes before the task at first.pos runs; `second`
      // starts after the task at second.pos - 1 completes.
      if (second.pos == 0) return false;
      return reach_->reaches(schedule_.order[first.proc][first.pos],
                             schedule_.order[second.proc][second.pos - 1]);
    };
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        const MapEvent& a = events[i];
        const MapEvent& b = events[j];
        if (a.proc == b.proc) continue;
        const bool a_to_b = std::count(a.package_dests.begin(),
                                       a.package_dests.end(), b.proc) > 0;
        const bool b_to_a = std::count(b.package_dests.begin(),
                                       b.package_dests.end(), a.proc) > 0;
        if (!a_to_b || !b_to_a) continue;
        if (ordered(a, b) || ordered(b, a)) continue;
        add({.rule = "MBX-CROSS",
             .severity = Severity::kWarning,
             .proc = a.proc,
             .position = a.pos,
             .message = cat("MAP at (proc ", a.proc, ", pos ", a.pos,
                            ") and MAP at (proc ", b.proc, ", pos ", b.pos,
                            ") send address packages to each other and no "
                            "dependence orders them — with mailbox_slots=1 "
                            "both can block on a full slot at once"),
             .hint = "safe because every blocking state services RA "
                     "(Theorem 1); raise RunConfig::mailbox_slots to remove "
                     "the wait entirely"});
        check_recovery_crossing(a, b);
        check_recovery_crossing(b, a);
      }
    }
  }

  // -- REC-CROSS: crossed mailbox waits the re-request layer cannot heal --

  /// The re-request recovery heals content and flag waits (a waiter NACKs
  /// the owner), but there is no re-request for a mailbox-slot wait: a MAP
  /// blocked on a full slot is only dissolved by the peer draining its
  /// mailbox (RA in every blocking state). When one side of a crossed MAP
  /// pair gates a remote read *from the crossing peer* behind its blocked
  /// MAP, a lost or stalled drain leaves the content wait unreachable —
  /// the buffer is never allocated, so the waiter never enters the wait the
  /// recovery layer could act on. Warn so the user knows this crossing sits
  /// outside the self-healing layer's coverage.
  void check_recovery_crossing(const MapEvent& blocked, const MapEvent& peer) {
    const auto& order = schedule_.order[blocked.proc];
    const auto upto = std::min(blocked.alloc_upto,
                               static_cast<std::int32_t>(order.size()));
    for (std::int32_t k = blocked.pos; k < upto; ++k) {
      const TaskId t = order[k];
      for (const rt::RemoteRead& rr : plan_.tasks[t].remote_reads) {
        if (graph_.data(rr.object).owner != peer.proc) continue;
        if (std::find(blocked.allocated.begin(), blocked.allocated.end(),
                      rr.object) == blocked.allocated.end()) {
          continue;
        }
        add({.rule = "REC-CROSS",
             .severity = Severity::kWarning,
             .task = t,
             .object = rr.object,
             .proc = blocked.proc,
             .position = blocked.pos,
             .message = cat(
                 "MAP at (proc ", blocked.proc, ", pos ", blocked.pos,
                 ") allocates the buffer for remote read of '",
                 data_name(rr.object), "' (task '", task_name(t),
                 "') from p", peer.proc,
                 ", but is itself in a crossed single-slot mailbox wait "
                 "with p", peer.proc,
                 " — a mailbox-slot wait has no re-request, so the "
                 "recovery layer cannot heal a stall here"),
             .hint = "liveness rests on RA service in the blocked MAP "
                     "alone; raise RunConfig::mailbox_slots (or reorder to "
                     "break the crossing) if recoverability is required"});
        return;  // one finding per crossed direction is enough
      }
    }
  }

  const graph::TaskGraph& graph_;
  const Schedule& schedule_;
  const RunPlan& plan_;
  const AuditOptions& options_;

  AuditReport report_;
  std::map<std::string, std::int32_t> rule_counts_;
  bool index_ok_ = true;
  std::vector<std::vector<std::vector<TaskId>>> derived_epochs_;  // per object
  std::unique_ptr<Reachability> reach_;
};

}  // namespace

AuditReport audit_plan(const graph::TaskGraph& graph,
                       const sched::Schedule& schedule,
                       const rt::RunPlan& plan, const AuditOptions& options) {
  RAPID_CHECK(graph.finalized(), "graph must be finalized before auditing");
  return Auditor(graph, schedule, plan, options).run();
}

}  // namespace rapid::verify
