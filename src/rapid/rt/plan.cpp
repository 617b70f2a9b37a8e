#include "rapid/rt/plan.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

namespace {

/// Epoch grouping: a writer joins the current epoch iff it carries the same
/// non-negative commute group AND no external reader of the object sits
/// between it and the previous member in program order. The reader
/// condition matters for liveness: an interleaved reader has an anti edge
/// into every later epoch member (the inspector's semantics), so gating the
/// reader on whole-epoch completion would wait on tasks that transitively
/// wait on the reader. Splitting the epoch there makes the reader's version
/// available as soon as the earlier members finish.
std::vector<std::vector<TaskId>> group_epochs(const graph::TaskGraph& graph,
                                              DataId d) {
  const std::span<const TaskId> writers = graph.writers(d);
  // Pure readers of d (read but do not write it), sorted by program order
  // (task ids are assigned in registration order).
  std::vector<TaskId> pure_readers;
  for (TaskId r : graph.readers(d)) {
    if (!std::binary_search(graph.task(r).writes.begin(),
                            graph.task(r).writes.end(), d)) {
      pure_readers.push_back(r);
    }
  }
  auto reader_between = [&pure_readers](TaskId a, TaskId b) {
    auto it = std::upper_bound(pure_readers.begin(), pure_readers.end(), a);
    return it != pure_readers.end() && *it < b;
  };
  std::vector<std::vector<TaskId>> epochs;
  std::int32_t current_group = -2;
  for (TaskId w : writers) {
    const std::int32_t g = graph.task(w).commute_group;
    if (!epochs.empty() && g >= 0 && g == current_group &&
        !reader_between(epochs.back().back(), w)) {
      epochs.back().push_back(w);
    } else {
      epochs.push_back({w});
      current_group = g >= 0 ? g : -2;  // non-commuting: nobody can join
    }
  }
  return epochs;
}

}  // namespace

std::int32_t RunPlan::version_of_writer(DataId d, TaskId t) const {
  const ObjectPlan& obj = objects[d];
  for (std::size_t v = 0; v < obj.epochs.size(); ++v) {
    if (std::binary_search(obj.epochs[v].begin(), obj.epochs[v].end(), t)) {
      return static_cast<std::int32_t>(v) + 1;
    }
  }
  RAPID_FAIL(cat("task ", t, " is not a writer of object ", d));
}

RunPlan build_run_plan(const graph::TaskGraph& graph,
                       const sched::Schedule& schedule) {
  schedule.validate(graph);
  RunPlan plan;
  plan.graph = &graph;
  plan.schedule = schedule;
  plan.num_procs = schedule.num_procs;
  plan.objects.resize(static_cast<std::size_t>(graph.num_data()));
  plan.tasks.resize(static_cast<std::size_t>(graph.num_tasks()));
  plan.procs.resize(static_cast<std::size_t>(plan.num_procs));

  // Epoch structure per object. Task ids are assigned in program order, so
  // writer lists are sorted; epochs inherit that (binary_search-able).
  for (DataId d = 0; d < graph.num_data(); ++d) {
    plan.objects[d].epochs = group_epochs(graph, d);
    plan.objects[d].sends_by_version.resize(
        plan.objects[d].epochs.size() + 1);
  }

  // Epoch memberships per task.
  for (DataId d = 0; d < graph.num_data(); ++d) {
    const auto& epochs = plan.objects[d].epochs;
    for (std::size_t v = 0; v < epochs.size(); ++v) {
      for (TaskId w : epochs[v]) {
        plan.tasks[w].epoch_memberships.emplace_back(
            d, static_cast<std::int32_t>(v) + 1);
      }
    }
  }

  // Gating conditions and flag routing from the transformed graph's edges.
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    TaskRuntimePlan& tp = plan.tasks[t];
    const ProcId my_proc = schedule.proc_of_task[t];
    // Volatile accesses: remotely-owned objects this task reads. (Writes
    // are always local under owner-compute; validate() enforced it.)
    for (DataId d : graph.task(t).accesses()) {
      if (graph.data(d).owner != my_proc) {
        tp.volatile_accesses.push_back(d);
      }
    }
    // Required versions per volatile object.
    std::vector<std::int32_t> version_needed(tp.volatile_accesses.size(), 0);
    std::set<TaskId> sync_preds;
    for (std::int32_t ei : graph.in_edges(t)) {
      const graph::Edge& e = graph.edges()[ei];
      if (schedule.proc_of_task[e.src] == my_proc) continue;
      if (e.kind == graph::DepKind::kTrue) {
        const auto it = std::find(tp.volatile_accesses.begin(),
                                  tp.volatile_accesses.end(), e.object);
        RAPID_CHECK(it != tp.volatile_accesses.end(),
                    "cross-processor true edge into a non-volatile input");
        const auto slot =
            static_cast<std::size_t>(it - tp.volatile_accesses.begin());
        version_needed[slot] =
            std::max(version_needed[slot],
                     plan.version_of_writer(e.object, e.src));
      } else {
        sync_preds.insert(e.src);
      }
    }
    for (std::size_t i = 0; i < tp.volatile_accesses.size(); ++i) {
      tp.remote_reads.push_back(
          RemoteRead{tp.volatile_accesses[i], version_needed[i]});
    }
    tp.remote_sync_preds.assign(sync_preds.begin(), sync_preds.end());
    // Flag destinations from outgoing sync edges.
    std::set<ProcId> flag_dests;
    for (std::int32_t ei : graph.out_edges(t)) {
      const graph::Edge& e = graph.edges()[ei];
      if (e.kind == graph::DepKind::kTrue) continue;
      const ProcId dest = schedule.proc_of_task[e.dst];
      if (dest != my_proc) flag_dests.insert(dest);
    }
    tp.flag_dests.assign(flag_dests.begin(), flag_dests.end());
  }

  // Content sends: for every remote reader, one (object, version, proc)
  // message, deduplicated.
  {
    std::set<std::tuple<DataId, std::int32_t, ProcId>> sends;
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      for (const RemoteRead& rr : plan.tasks[t].remote_reads) {
        sends.emplace(rr.object, rr.version, plan.schedule.proc_of_task[t]);
      }
    }
    for (const auto& [d, v, dest] : sends) {
      plan.objects[d].sends_by_version[static_cast<std::size_t>(v)].push_back(
          dest);
    }
  }

  // Per-processor plans.
  const sched::LivenessTable liveness =
      sched::analyze_liveness(graph, schedule);
  for (ProcId p = 0; p < plan.num_procs; ++p) {
    ProcPlan& pp = plan.procs[p];
    pp.order = schedule.order[p];
    pp.volatiles = liveness.procs[p].volatiles;
    pp.permanent_bytes = liveness.procs[p].permanent_bytes;
  }
  for (DataId d = 0; d < graph.num_data(); ++d) {
    const ProcId owner = graph.data(d).owner;
    plan.procs[owner].permanents.push_back(d);
    for (ProcId dest : plan.objects[d].sends_by_version[0]) {
      plan.procs[owner].initial_sends.push_back(ContentSend{d, 0, dest});
    }
  }
  return plan;
}

std::uint64_t plan_fingerprint(const RunPlan& plan) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(plan.procs.size()));
  for (const ProcPlan& pp : plan.procs) {
    mix(static_cast<std::uint64_t>(pp.order.size()));
    for (TaskId t : pp.order) {
      mix(static_cast<std::uint64_t>(t) + 0x9e3779b9ull);
    }
    mix(static_cast<std::uint64_t>(pp.permanent_bytes));
  }
  return h;
}

}  // namespace rapid::rt
