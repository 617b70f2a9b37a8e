#include "rapid/rt/stall.hpp"

#include <algorithm>

#include "rapid/support/str.hpp"

namespace rapid::rt {

const char* to_string(ProcState state) {
  switch (state) {
    case ProcState::kStart: return "START";
    case ProcState::kMap: return "MAP";
    case ProcState::kMapBlocked: return "MAP-blocked";
    case ProcState::kExe: return "EXE";
    case ProcState::kRecBlocked: return "REC-blocked";
    case ProcState::kEndDrain: return "END-drain";
    case ProcState::kQuiescent: return "QUIESCENT";
    case ProcState::kFailed: return "FAILED";
  }
  return "?";
}

const char* to_string(WaitEdge::Kind kind) {
  switch (kind) {
    case WaitEdge::Kind::kContent: return "content";
    case WaitEdge::Kind::kFlag: return "flag";
    case WaitEdge::Kind::kAddrPackage: return "addr_package";
    case WaitEdge::Kind::kMailboxSlot: return "mailbox_slot";
  }
  return "?";
}

bool is_blocked(ProcState s) {
  return s == ProcState::kRecBlocked || s == ProcState::kMapBlocked ||
         s == ProcState::kEndDrain;
}

namespace {

std::string object_name(const RunPlan& plan, DataId d) {
  return d == graph::kInvalidData ? std::string("?")
                                  : plan.graph->data(d).name;
}

std::string task_name(const RunPlan& plan, TaskId t) {
  return t == graph::kInvalidTask ? std::string("?")
                                  : plan.graph->task(t).name;
}

}  // namespace

std::vector<WaitEdge> build_wait_edges(
    const RunPlan& plan, const std::vector<ProcSnapshot>& procs) {
  // Reverse map: which processor runs each task (for flag waits).
  std::vector<ProcId> task_proc(
      static_cast<std::size_t>(plan.graph->num_tasks()), graph::kInvalidProc);
  for (ProcId q = 0; q < plan.num_procs; ++q) {
    for (TaskId t : plan.procs[q].order) task_proc[t] = q;
  }

  std::vector<WaitEdge> edges;
  for (const ProcSnapshot& s : procs) {
    if (!is_blocked(s.state)) continue;
    if (s.state == ProcState::kRecBlocked) {
      if (s.waiting_object != graph::kInvalidData) {
        WaitEdge e;
        e.from = s.proc;
        e.to = plan.graph->data(s.waiting_object).owner;
        e.kind = WaitEdge::Kind::kContent;
        e.object = s.waiting_object;
        e.retries = s.retry.attempts;
        e.reason = cat("task ", task_name(plan, s.current_task),
                       " needs version ", s.waiting_version, " of ",
                       object_name(plan, s.waiting_object), " (has ",
                       s.have_version, ") from p", e.to);
        if (e.retries > 0) {
          e.reason += cat("; ", e.retries, " re-request(s) sent");
        }
        edges.push_back(std::move(e));
      } else if (s.waiting_flag_task != graph::kInvalidTask) {
        WaitEdge e;
        e.from = s.proc;
        e.to = task_proc[s.waiting_flag_task];
        e.kind = WaitEdge::Kind::kFlag;
        e.retries = s.retry.attempts;
        e.reason = cat("task ", task_name(plan, s.current_task),
                       " needs the completion flag of ",
                       task_name(plan, s.waiting_flag_task), " from p", e.to);
        if (e.retries > 0) {
          e.reason += cat("; ", e.retries, " re-request(s) sent");
        }
        edges.push_back(std::move(e));
      }
    }
    if (s.state == ProcState::kMapBlocked &&
        s.mailbox_full_dest != graph::kInvalidProc) {
      WaitEdge e;
      e.from = s.proc;
      e.to = s.mailbox_full_dest;
      e.kind = WaitEdge::Kind::kMailboxSlot;
      e.reason = cat("MAP blocked: p", e.to,
                     "'s address mailbox slot for p", s.proc, " is full");
      edges.push_back(std::move(e));
    }
    // Suspended sends wait for the destination's next MAP to publish
    // addresses — an edge regardless of which state the owner idles in.
    for (ProcId r = 0;
         r < static_cast<ProcId>(s.suspended_by_dest.size()); ++r) {
      if (s.suspended_by_dest[static_cast<std::size_t>(r)] <= 0) continue;
      WaitEdge e;
      e.from = s.proc;
      e.to = r;
      e.kind = WaitEdge::Kind::kAddrPackage;
      e.reason =
          cat(s.suspended_by_dest[static_cast<std::size_t>(r)],
              " suspended send(s) to p", r, " awaiting its address package");
      edges.push_back(std::move(e));
    }
  }
  return edges;
}

std::vector<ProcId> find_cycle(int num_procs,
                               const std::vector<WaitEdge>& edges) {
  std::vector<std::vector<ProcId>> adj(static_cast<std::size_t>(num_procs));
  for (const WaitEdge& e : edges) {
    if (e.from >= 0 && e.to >= 0 && e.from < num_procs && e.to < num_procs) {
      adj[static_cast<std::size_t>(e.from)].push_back(e.to);
    }
  }
  // Iterative colored DFS; on a back edge, unwind the explicit stack into
  // the cycle node sequence.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(static_cast<std::size_t>(num_procs),
                                  kWhite);
  for (ProcId root = 0; root < num_procs; ++root) {
    if (color[static_cast<std::size_t>(root)] != kWhite) continue;
    std::vector<std::pair<ProcId, std::size_t>> stack{{root, 0}};
    color[static_cast<std::size_t>(root)] = kGray;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto& out = adj[static_cast<std::size_t>(node)];
      if (next >= out.size()) {
        color[static_cast<std::size_t>(node)] = kBlack;
        stack.pop_back();
        continue;
      }
      const ProcId child = out[next++];
      if (color[static_cast<std::size_t>(child)] == kGray) {
        std::vector<ProcId> cycle;
        auto it = std::find_if(stack.begin(), stack.end(),
                               [&](const auto& f) { return f.first == child; });
        for (; it != stack.end(); ++it) cycle.push_back(it->first);
        return cycle;
      }
      if (color[static_cast<std::size_t>(child)] == kWhite) {
        color[static_cast<std::size_t>(child)] = kGray;
        stack.emplace_back(child, 0);
      }
    }
  }
  return {};
}

StallReport diagnose_stall(const RunPlan& plan,
                           std::vector<ProcSnapshot> procs,
                           double stalled_seconds,
                           std::vector<std::string> errors) {
  StallReport report;
  report.stalled_seconds = stalled_seconds;
  report.procs = std::move(procs);
  report.errors = std::move(errors);
  report.edges = build_wait_edges(plan, report.procs);
  report.cycle = find_cycle(plan.num_procs, report.edges);
  report.genuine_deadlock = !report.cycle.empty();
  for (const ProcSnapshot& s : report.procs) {
    if (s.retry.exhausted) report.retries_exhausted = true;
  }
  if (!report.genuine_deadlock) {
    // A wait pointed at an already-quiescent processor can never be
    // satisfied either: that processor performs no further MAPs, sends, or
    // flags. (A mailbox-slot wait is exempt — quiescent processors still
    // drain their mailboxes.)
    for (const WaitEdge& e : report.edges) {
      if (e.kind == WaitEdge::Kind::kMailboxSlot) continue;
      const auto& target = report.procs[static_cast<std::size_t>(e.to)];
      if (target.state == ProcState::kQuiescent) {
        report.genuine_deadlock = true;
        break;
      }
    }
  }
  return report;
}

std::string StallReport::summary() const {
  std::string out = cat("no protocol progress for ",
                        fixed(stalled_seconds, 2), " s");
  if (attempt_deadline_us > 0) {
    out += cat(" (attempt deadline ", attempt_deadline_us, " us)");
  }
  out += "\n";
  if (!cycle.empty()) {
    out += "wait-for cycle: ";
    for (const ProcId q : cycle) out += cat("p", q, " -> ");
    out += cat("p", cycle.front(), "\n");
  } else if (genuine_deadlock) {
    out += "wait on an already-quiescent processor (can never resolve)\n";
  } else {
    out += "no wait-for cycle (slow progress, not a proven deadlock)\n";
  }
  for (const ProcSnapshot& s : procs) {
    out += cat("  p", s.proc, " [", to_string(s.state), "] pos ", s.pos, "/",
               s.order_size, ", suspended=", s.suspended_sends,
               ", mailbox=", s.mailbox_packages);
    if (is_blocked(s.state)) {
      out += cat(", waited ", s.retry.waited_us, " us");
    }
    out += "\n";
    const RetryRecord& r = s.retry;
    if (r.attempts > 0 || r.exhausted) {
      out += cat("    retry: ",
                 r.object != graph::kInvalidData
                     ? cat("object ", r.object, " v", r.version)
                     : cat("flag of task ", r.flag_task),
                 ", ", r.attempts, " attempt(s), waited ", r.waited_us,
                 " us", r.exhausted ? " — EXHAUSTED" : "", "\n");
    }
  }
  for (const WaitEdge& e : edges) {
    out += cat("  p", e.from, " -> p", e.to, ": ", e.reason, "\n");
  }
  for (const std::string& err : errors) {
    out += cat("  error: ", err, "\n");
  }
  return out;
}

JsonValue StallReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc["stalled_seconds"] = stalled_seconds;
  doc["attempt_deadline_us"] = attempt_deadline_us;
  doc["genuine_deadlock"] = genuine_deadlock;
  doc["retries_exhausted"] = retries_exhausted;
  JsonValue cyc = JsonValue::array();
  for (const ProcId q : cycle) cyc.push_back(q);
  doc["cycle"] = std::move(cyc);
  JsonValue ps = JsonValue::array();
  for (const ProcSnapshot& s : procs) {
    JsonValue p = JsonValue::object();
    p["proc"] = s.proc;
    p["state"] = to_string(s.state);
    p["pos"] = s.pos;
    p["order_size"] = s.order_size;
    p["current_task"] = s.current_task;
    p["waiting_object"] = s.waiting_object;
    p["waiting_version"] = s.waiting_version;
    p["have_version"] = s.have_version;
    p["waiting_flag_task"] = s.waiting_flag_task;
    p["mailbox_full_dest"] = s.mailbox_full_dest;
    p["suspended_sends"] = s.suspended_sends;
    p["mailbox_packages"] = s.mailbox_packages;
    JsonValue rr = JsonValue::object();
    rr["object"] = s.retry.object;
    rr["version"] = s.retry.version;
    rr["flag_task"] = s.retry.flag_task;
    rr["attempts"] = s.retry.attempts;
    rr["waited_us"] = s.retry.waited_us;
    rr["exhausted"] = s.retry.exhausted;
    p["retry"] = std::move(rr);
    JsonValue susp = JsonValue::array();
    for (const std::int64_t n : s.suspended_by_dest) susp.push_back(n);
    p["suspended_by_dest"] = std::move(susp);
    ps.push_back(std::move(p));
  }
  doc["procs"] = std::move(ps);
  JsonValue es = JsonValue::array();
  for (const WaitEdge& e : edges) {
    JsonValue j = JsonValue::object();
    j["from"] = e.from;
    j["to"] = e.to;
    j["kind"] = to_string(e.kind);
    j["object"] = e.object;
    j["retries"] = e.retries;
    j["reason"] = e.reason;
    es.push_back(std::move(j));
  }
  doc["edges"] = std::move(es);
  JsonValue errs = JsonValue::array();
  for (const std::string& e : errors) errs.push_back(e);
  doc["errors"] = std::move(errs);
  return doc;
}

}  // namespace rapid::rt
