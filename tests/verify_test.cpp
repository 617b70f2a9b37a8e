// Plan auditor tests: clean bills of health for valid pipelines, and —
// the point of an auditor — exact rule-id diagnostics when a schedule,
// plan, or graph is deliberately corrupted. Each negative test mutates one
// thing a real bug could break (a dropped dependence edge, a capacity below
// a MAP's need, a shifted volatile lifetime, a lost message, a bent
// version) and asserts the auditor names the rule and the location.
#include <gtest/gtest.h>

#include <algorithm>

#include "rapid/num/workloads.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/verify/auditor.hpp"
#include "rapid/verify/testing.hpp"

namespace rapid::verify {
namespace {

struct Fixture {
  graph::TaskGraph graph = graph::make_paper_figure2_graph();
  sched::Schedule schedule;
  rt::RunPlan plan;
  sched::LivenessTable liveness;

  Fixture() {
    const auto assignment = sched::owner_compute_tasks(graph, 2);
    schedule = sched::schedule_mpo(graph, assignment, 2,
                                   machine::MachineParams::cray_t3d(2));
    plan = rt::build_run_plan(graph, schedule);
    liveness = sched::analyze_liveness(graph, schedule);
  }
};

// ---- positive paths ------------------------------------------------------

TEST(Auditor, CleanOnPaperExample) {
  Fixture f;
  EXPECT_PLAN_CLEAN(f.graph, f.schedule, f.plan);
  EXPECT_PLAN_CLEAN_AT(f.graph, f.schedule, f.plan, f.liveness.min_mem());
}

TEST(Auditor, CleanOnCholeskyPipeline) {
  auto workload = num::bcsstk24_like(0.25);
  auto app = num::CholeskyApp::build(std::move(workload.matrix), 6, 4);
  const auto& g = app.graph();
  const auto assignment = sched::owner_compute_tasks(g, 4);
  for (const char* name : {"rcp", "mpo", "dts"}) {
    const std::string ordering = name;
    const auto params = machine::MachineParams::cray_t3d(4);
    const sched::Schedule s =
        ordering == "rcp"   ? sched::schedule_rcp(g, assignment, 4, params)
        : ordering == "mpo" ? sched::schedule_mpo(g, assignment, 4, params)
                            : sched::schedule_dts(g, assignment, 4, params);
    const rt::RunPlan plan = rt::build_run_plan(g, s);
    // MIN_MEM + 1/8 slack: the executability threshold the rest of the
    // suite uses (first-fit can fragment just above the Def. 6 bound).
    const auto min_mem = sched::analyze_liveness(g, s).min_mem();
    EXPECT_PLAN_CLEAN_AT(g, s, plan, min_mem + min_mem / 8);
  }
}

TEST(Auditor, ReportRendersRuleAndLocation) {
  Fixture f;
  AuditOptions options;
  options.capacity_per_proc = f.liveness.min_mem() - 1;
  const AuditReport report =
      audit_plan(f.graph, f.schedule, f.plan, options);
  ASSERT_FALSE(report.clean());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("CAP-MAP"), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("Def. 6"), std::string::npos);
}

// ---- corruption 1: a dropped dependence edge -----------------------------

TEST(Auditor, DroppedEdgeBreaksDependenceCompleteness) {
  // Drop each kept edge in turn; whenever no other path covers the pair,
  // the auditor must flag a DEP-* violation naming the edge's object.
  // At least one kept edge per kind must be load-bearing on this graph.
  int dep_findings = 0;
  bool blamed_dropped_object = false;
  bool saw_true_drop = false, saw_sync_drop = false;
  const Fixture reference;
  const auto num_edges =
      static_cast<std::int32_t>(reference.graph.edges().size());
  for (std::int32_t ei = 0; ei < num_edges; ++ei) {
    if (reference.graph.edges()[ei].redundant) continue;
    Fixture f;  // fresh copy of graph + schedule + plan
    const graph::Edge edge = f.graph.edges()[ei];
    f.graph.drop_edge_for_test(ei);
    const AuditReport report = audit_plan(f.graph, f.schedule, f.plan, {});
    bool found = false;
    for (const Finding& finding : report.findings) {
      if (finding.rule != "DEP-RAW" && finding.rule != "DEP-WAR" &&
          finding.rule != "DEP-WAW") {
        continue;
      }
      found = true;
      EXPECT_GE(finding.object, 0) << finding.rule << " names no object";
      // A drop can also sever a *different* object's covering path, so the
      // blamed object need not equal edge.object every time — but it must
      // for at least one drop (checked after the loop).
      if (finding.object == edge.object) blamed_dropped_object = true;
    }
    if (found) {
      ++dep_findings;
      (edge.kind == graph::DepKind::kTrue ? saw_true_drop : saw_sync_drop) =
          true;
    }
  }
  EXPECT_GT(dep_findings, 0);
  EXPECT_TRUE(blamed_dropped_object);
  EXPECT_TRUE(saw_true_drop);  // a lost RAW/WAW path is detected
  EXPECT_TRUE(saw_sync_drop);  // a lost anti/output sync edge is detected
}

// ---- corruption 2: capacity below a MAP's need ---------------------------

TEST(Auditor, ShrunkCapacityIsDiagnosedAtTheExactPosition) {
  Fixture f;
  AuditOptions options;
  options.capacity_per_proc = f.liveness.min_mem() - 1;
  const AuditReport report =
      audit_plan(f.graph, f.schedule, f.plan, options);
  EXPECT_FALSE(report.clean());
  const Finding* finding = report.find("CAP-MAP");
  ASSERT_NE(finding, nullptr);
  EXPECT_GE(finding->position, 0);
  ASSERT_GE(finding->proc, 0);
  ASSERT_LT(finding->proc, 2);
  ASSERT_GE(finding->task, 0);
  // The blamed task really sits at the blamed position of the blamed proc.
  EXPECT_EQ(f.schedule.order[finding->proc][finding->position], finding->task);
  // And the simulator agrees: the same capacity is non-executable.
  rt::RunConfig config;
  config.params = machine::MachineParams::cray_t3d(2);
  config.capacity_per_proc = options.capacity_per_proc;
  EXPECT_FALSE(rt::simulate(f.plan, config).executable);
}

TEST(Auditor, PermanentOverflowIsCapPerm) {
  Fixture f;
  AuditOptions options;
  options.capacity_per_proc = 1;  // not even the permanents fit
  const AuditReport report =
      audit_plan(f.graph, f.schedule, f.plan, options);
  EXPECT_TRUE(report.has("CAP-PERM"));
}

TEST(Auditor, BaselineModeChecksTotalFootprint) {
  Fixture f;
  AuditOptions options;
  options.active_memory = false;
  options.capacity_per_proc = f.liveness.tot_mem() - 1;
  const AuditReport report =
      audit_plan(f.graph, f.schedule, f.plan, options);
  EXPECT_TRUE(report.has("CAP-TOT"));
  options.capacity_per_proc = f.liveness.tot_mem();
  EXPECT_TRUE(audit_plan(f.graph, f.schedule, f.plan, options).clean());
}

// ---- corruption 3: shifted volatile lifetimes ----------------------------

TEST(Auditor, ShrunkLifetimeIsUseAfterFree) {
  Fixture f;
  // Find a volatile and cut its window short of the real last access.
  graph::ProcId proc = graph::kInvalidProc;
  std::size_t slot = 0;
  for (graph::ProcId p = 0; p < f.plan.num_procs; ++p) {
    for (std::size_t i = 0; i < f.plan.procs[p].volatiles.size(); ++i) {
      if (f.plan.procs[p].volatiles[i].last_pos >
          f.plan.procs[p].volatiles[i].first_pos) {
        proc = p;
        slot = i;
      }
    }
  }
  ASSERT_NE(proc, graph::kInvalidProc) << "fixture has no shrinkable window";
  auto& lifetime = f.plan.procs[proc].volatiles[slot];
  const std::int32_t true_last = lifetime.last_pos;
  lifetime.last_pos = lifetime.first_pos;
  const AuditReport report = audit_plan(f.graph, f.schedule, f.plan, {});
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has("LIVE-WINDOW"));  // disagrees with dead-point table
  const Finding* finding = report.find("LIVE-AFTER");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->object, lifetime.object);
  EXPECT_EQ(finding->proc, proc);
  // The blamed position is a real access past the truncated window (the
  // scan reports the earliest one; true_last is certainly an access).
  EXPECT_GT(finding->position, lifetime.first_pos);
  EXPECT_LE(finding->position, true_last);
}

TEST(Auditor, DelayedLifetimeIsUseBeforeAlloc) {
  Fixture f;
  graph::ProcId proc = graph::kInvalidProc;
  std::size_t slot = 0;
  for (graph::ProcId p = 0; p < f.plan.num_procs; ++p) {
    for (std::size_t i = 0; i < f.plan.procs[p].volatiles.size(); ++i) {
      if (f.plan.procs[p].volatiles[i].last_pos >
          f.plan.procs[p].volatiles[i].first_pos) {
        proc = p;
        slot = i;
      }
    }
  }
  ASSERT_NE(proc, graph::kInvalidProc);
  auto& lifetime = f.plan.procs[proc].volatiles[slot];
  const std::int32_t true_first = lifetime.first_pos;
  lifetime.first_pos = lifetime.last_pos;
  const AuditReport report = audit_plan(f.graph, f.schedule, f.plan, {});
  const Finding* finding = report.find("LIVE-BEFORE");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->object, lifetime.object);
  EXPECT_EQ(finding->position, true_first);
}

// ---- message and version corruptions -------------------------------------

TEST(Auditor, LostContentSendIsMsgRecv) {
  Fixture f;
  // Erase one planned send; its reader now waits forever.
  graph::DataId victim = graph::kInvalidData;
  std::size_t version = 0;
  for (graph::DataId d = 0; d < f.graph.num_data() && victim < 0; ++d) {
    auto& by_version = f.plan.objects[d].sends_by_version;
    for (std::size_t v = 0; v < by_version.size(); ++v) {
      if (!by_version[v].empty()) {
        victim = d;
        version = v;
        by_version[v].pop_back();
        break;
      }
    }
  }
  ASSERT_NE(victim, graph::kInvalidData);
  (void)version;
  const AuditReport report = audit_plan(f.graph, f.schedule, f.plan, {});
  // The reader still needs the version, so MSG-RECV fires for any version
  // (a lost version-0 send may additionally raise MSG-INIT).
  const Finding* finding = report.find("MSG-RECV");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->object, victim);
}

TEST(Auditor, SpuriousSendIsMsgSend) {
  Fixture f;
  // An owner "sending" a version to itself is always bogus — deterministic
  // corruption regardless of which readers exist.
  graph::DataId victim = graph::kInvalidData;
  for (graph::DataId d = 0; d < f.graph.num_data(); ++d) {
    if (!f.plan.objects[d].sends_by_version.empty()) {
      victim = d;
      f.plan.objects[d].sends_by_version.back().push_back(
          f.graph.data(d).owner);
      break;
    }
  }
  ASSERT_NE(victim, graph::kInvalidData);
  const AuditReport report = audit_plan(f.graph, f.schedule, f.plan, {});
  const Finding* finding = report.find("MSG-SEND");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->object, victim);
  EXPECT_EQ(finding->proc, f.graph.data(victim).owner);
}

TEST(Auditor, BentVersionIsVerRange) {
  Fixture f;
  rt::RemoteRead* victim = nullptr;
  for (auto& task : f.plan.tasks) {
    if (!task.remote_reads.empty()) {
      victim = &task.remote_reads.front();
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  victim->version =
      f.plan.objects[victim->object].num_versions() + 7;
  const AuditReport report = audit_plan(f.graph, f.schedule, f.plan, {});
  const Finding* finding = report.find("VER-RANGE");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->object, victim->object);
}

TEST(Auditor, ShuffledEpochsAreVerEpoch) {
  Fixture f;
  graph::DataId victim = graph::kInvalidData;
  for (graph::DataId d = 0; d < f.graph.num_data(); ++d) {
    if (f.plan.objects[d].epochs.size() >= 2) {
      std::swap(f.plan.objects[d].epochs.front(),
                f.plan.objects[d].epochs.back());
      victim = d;
      break;
    }
  }
  ASSERT_NE(victim, graph::kInvalidData);
  const AuditReport report = audit_plan(f.graph, f.schedule, f.plan, {});
  const Finding* finding = report.find("VER-EPOCH");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->object, victim);
}

// ---- schedule corruptions ------------------------------------------------

TEST(Auditor, SwappedOrderIsSchedOrder) {
  Fixture f;
  // Reverse one processor's order: some local dependence must now point
  // backwards (the paper graph has chains on every processor).
  auto& order = f.plan.schedule.order[0];
  ASSERT_GE(order.size(), 2u);
  std::reverse(order.begin(), order.end());
  f.plan.schedule.rebuild_index(f.graph.num_tasks());
  const AuditReport report =
      audit_plan(f.graph, f.plan.schedule, f.plan, {});
  EXPECT_TRUE(report.has("SCHED-ORDER")) << report.to_string();
}

TEST(Auditor, DuplicatedTaskIsSchedPlace) {
  Fixture f;
  f.plan.schedule.order[0].push_back(f.plan.schedule.order[1].front());
  const AuditReport report =
      audit_plan(f.graph, f.plan.schedule, f.plan, {});
  EXPECT_TRUE(report.has("SCHED-PLACE"));
}

// ---- mailbox crossing ----------------------------------------------------

TEST(Auditor, CrossedAddressPackageWaitsAreWarned) {
  // Two processors, each owning an object the other reads, both first MAPs
  // at position 0: the address packages cross and nothing orders them.
  graph::TaskGraph g;
  const auto a = g.add_data("a", 64, 0);
  const auto b = g.add_data("b", 64, 1);
  g.add_task("Wa", {}, {a}, 1.0);
  g.add_task("Wb", {}, {b}, 1.0);
  g.add_task("Rb", {b}, {a}, 1.0);  // on proc 0, reads remote b
  g.add_task("Ra", {a}, {b}, 1.0);  // on proc 1, reads remote a
  g.finalize();
  const auto assignment = sched::owner_compute_tasks(g, 2);
  const auto schedule = sched::schedule_rcp(
      g, assignment, 2, machine::MachineParams::cray_t3d(2));
  const rt::RunPlan plan = rt::build_run_plan(g, schedule);
  AuditOptions options;
  options.capacity_per_proc =
      sched::analyze_liveness(g, schedule).min_mem();
  const AuditReport report = audit_plan(g, schedule, plan, options);
  EXPECT_TRUE(report.clean()) << report.to_string();  // warning, not error
  const Finding* finding = report.find("MBX-CROSS");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, Severity::kWarning);
  // With buffered mailboxes the wait disappears, and so must the warning.
  options.mailbox_slots = 2;
  EXPECT_FALSE(audit_plan(g, schedule, plan, options).has("MBX-CROSS"));
}

TEST(Auditor, UnrecoverableCrossedWaitIsFlaggedRecCross) {
  // The same crossed-MAP construction: each side's blocked MAP allocates
  // the buffer for a remote read *from the crossing peer* (Rb on p0 reads
  // b owned by p1, and vice versa). A mailbox-slot wait has no re-request,
  // so the recovery layer cannot heal a stall there — the auditor must
  // point at the read the crossing gates.
  graph::TaskGraph g;
  const auto a = g.add_data("a", 64, 0);
  const auto b = g.add_data("b", 64, 1);
  g.add_task("Wa", {}, {a}, 1.0);
  g.add_task("Wb", {}, {b}, 1.0);
  g.add_task("Rb", {b}, {a}, 1.0);  // on proc 0, reads remote b
  g.add_task("Ra", {a}, {b}, 1.0);  // on proc 1, reads remote a
  g.finalize();
  const auto assignment = sched::owner_compute_tasks(g, 2);
  const auto schedule = sched::schedule_rcp(
      g, assignment, 2, machine::MachineParams::cray_t3d(2));
  const rt::RunPlan plan = rt::build_run_plan(g, schedule);
  AuditOptions options;
  options.capacity_per_proc =
      sched::analyze_liveness(g, schedule).min_mem();
  const AuditReport report = audit_plan(g, schedule, plan, options);
  EXPECT_TRUE(report.clean()) << report.to_string();  // warning, not error
  const Finding* finding = report.find("REC-CROSS");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, Severity::kWarning);
  // The finding names the gated remote read (task and object).
  EXPECT_NE(finding->task, graph::kInvalidTask);
  EXPECT_NE(finding->object, graph::kInvalidData);
  EXPECT_NE(finding->message.find("re-request"), std::string::npos);
  // Buffered mailboxes remove the wait, the crossing, and the warning.
  options.mailbox_slots = 2;
  EXPECT_FALSE(audit_plan(g, schedule, plan, options).has("REC-CROSS"));
}

// ---- missing lifetimes ----------------------------------------------------

TEST(Auditor, ClearedVolatilesAreLiveMissing) {
  Fixture f;
  f.plan.procs[0].volatiles.clear();
  f.plan.procs[1].volatiles.clear();
  AuditOptions options;
  options.capacity_per_proc = f.liveness.min_mem();
  const AuditReport report =
      audit_plan(f.graph, f.schedule, f.plan, options);
  EXPECT_FALSE(report.clean());
  const Finding* finding = report.find("LIVE-MISSING");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, Severity::kError);
  EXPECT_NE(finding->object, graph::kInvalidData);
  // The blamed task really accesses the object at the blamed position.
  ASSERT_GE(finding->proc, 0);
  ASSERT_GE(finding->position, 0);
  EXPECT_EQ(f.schedule.order[finding->proc][finding->position], finding->task);
}

}  // namespace
}  // namespace rapid::verify
