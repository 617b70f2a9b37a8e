// Direct unit tests of the MAP procedure (paper §3.3): free-dead /
// allocate-forward / assemble-packages semantics, the allocated-once rule,
// rollback on partial allocation, and the non-executable diagnosis; and of
// the memory plan recorded from it: step for step equal to an independent
// ProcMemory replay, memoized on the RunPlan, shared by concurrent callers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "rapid/machine/params.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/map_engine.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"
#include "rapid/svc/admission.hpp"

namespace rapid::rt {
namespace {

using graph::TaskGraph;

/// P0 produces objects a, b, c (8 bytes each); P1 consumes them one task
/// each, in order, so P1's volatile lifetimes are disjoint singletons.
struct PipelineFixture {
  TaskGraph g;
  graph::DataId a, b, c, sink;
  RunPlan plan;

  PipelineFixture() {
    a = g.add_data("a", 8, 0);
    b = g.add_data("b", 8, 0);
    c = g.add_data("c", 8, 0);
    sink = g.add_data("sink", 8, 1);
    const auto wa = g.add_task("Wa", {}, {a}, 1.0);
    const auto wb = g.add_task("Wb", {}, {b}, 1.0);
    const auto wc = g.add_task("Wc", {}, {c}, 1.0);
    const auto ra = g.add_task("Ra", {a}, {sink}, 1.0);
    const auto rb = g.add_task("Rb", {b}, {sink}, 1.0);
    const auto rc = g.add_task("Rc", {c}, {sink}, 1.0);
    g.finalize();
    sched::Schedule s;
    s.num_procs = 2;
    s.order = {{wa, wb, wc}, {ra, rb, rc}};
    s.rebuild_index(g.num_tasks());
    plan = build_run_plan(g, s);
  }
};

TEST(MapEngine, PermanentOverflowThrowsAtConstruction) {
  PipelineFixture f;
  // P0 owns 24 bytes of permanents.
  EXPECT_THROW(ProcMemory(f.plan, 0, 23), NonExecutableError);
  EXPECT_NO_THROW(ProcMemory(f.plan, 0, 24));
}

TEST(MapEngine, FirstMapAllocatesForwardUntilCapacity) {
  PipelineFixture f;
  // P1: 8 bytes permanent (sink) + capacity for exactly one volatile.
  ProcMemory memory(f.plan, 1, 16);
  ASSERT_TRUE(memory.needs_map(0));
  const MapResult map = memory.perform_map(0);
  EXPECT_EQ(map.allocated, std::vector<graph::DataId>{f.a});
  EXPECT_TRUE(map.freed.empty());
  EXPECT_EQ(map.alloc_upto, 1);  // only task 0's inputs fit
  ASSERT_EQ(map.packages.size(), 1u);
  EXPECT_EQ(map.packages[0].first, 0);  // owner of a
  EXPECT_EQ(map.packages[0].second.reader, 1);
  ASSERT_EQ(map.packages[0].second.entries.size(), 1u);
  EXPECT_EQ(map.packages[0].second.entries[0].first, f.a);
}

TEST(MapEngine, SubsequentMapFreesDeadAndContinues) {
  PipelineFixture f;
  ProcMemory memory(f.plan, 1, 16);
  memory.perform_map(0);
  ASSERT_TRUE(memory.needs_map(1));
  const MapResult map = memory.perform_map(1);
  EXPECT_EQ(map.freed, std::vector<graph::DataId>{f.a});  // dead after pos 0
  EXPECT_EQ(map.allocated, std::vector<graph::DataId>{f.b});
  EXPECT_EQ(map.alloc_upto, 2);
  EXPECT_FALSE(memory.is_allocated(f.a));
  EXPECT_TRUE(memory.is_allocated(f.b));
}

TEST(MapEngine, AmpleCapacityNeedsOneMap) {
  PipelineFixture f;
  ProcMemory memory(f.plan, 1, 1 << 10);
  const MapResult map = memory.perform_map(0);
  EXPECT_EQ(map.alloc_upto, 3);
  EXPECT_EQ(map.allocated.size(), 3u);
  EXPECT_FALSE(memory.needs_map(1));
  EXPECT_FALSE(memory.needs_map(2));
}

TEST(MapEngine, NonExecutableWhenCurrentTaskCannotFit) {
  PipelineFixture f;
  // 8 bytes permanent + 7 bytes leftover: no volatile ever fits.
  ProcMemory memory(f.plan, 1, 15);
  EXPECT_THROW(memory.perform_map(0), NonExecutableError);
}

TEST(MapEngine, PreallocateAllMatchesBaselineSemantics) {
  PipelineFixture f;
  ProcMemory memory(f.plan, 1, 8 + 24);
  EXPECT_NO_THROW(memory.preallocate_all());
  EXPECT_FALSE(memory.needs_map(0));
  EXPECT_TRUE(memory.is_allocated(f.a));
  EXPECT_TRUE(memory.is_allocated(f.c));
  ProcMemory tight(f.plan, 1, 8 + 23);
  EXPECT_THROW(tight.preallocate_all(), NonExecutableError);
}

TEST(MapEngine, OffsetsAreStableWhileLive) {
  PipelineFixture f;
  ProcMemory memory(f.plan, 1, 1 << 10);
  memory.perform_map(0);
  const mem::Offset off_b = memory.offset_of(f.b);
  // b stays at its address across unrelated activity (allocated once).
  EXPECT_EQ(memory.offset_of(f.b), off_b);
  EXPECT_THROW(memory.offset_of(f.sink + 100), Error);
}

TEST(MapEngine, PeakBytesTracksHighWater) {
  PipelineFixture f;
  ProcMemory tight(f.plan, 1, 16);
  tight.perform_map(0);
  tight.perform_map(1);
  tight.perform_map(2);
  EXPECT_EQ(tight.peak_bytes(), 16);  // 8 perm + 1 volatile at a time
  ProcMemory ample(f.plan, 1, 1 << 10);
  ample.perform_map(0);
  EXPECT_EQ(ample.peak_bytes(), 8 + 24);
}

/// Rollback: a task needing two volatiles where only one fits must leave
/// the arena unchanged for that task.
TEST(MapEngine, PartialAllocationRollsBack) {
  TaskGraph g;
  const auto x = g.add_data("x", 8, 0);
  const auto y = g.add_data("y", 8, 0);
  const auto out = g.add_data("out", 8, 1);
  const auto wx = g.add_task("Wx", {}, {x}, 1.0);
  const auto wy = g.add_task("Wy", {}, {y}, 1.0);
  const auto r = g.add_task("R", {x, y}, {out}, 1.0);
  g.finalize();
  sched::Schedule s;
  s.num_procs = 2;
  s.order = {{wx, wy}, {r}};
  s.rebuild_index(g.num_tasks());
  const RunPlan plan = build_run_plan(g, s);
  // P1: 8 permanent + 8 free — R needs 16 of volatile space.
  ProcMemory memory(plan, 1, 16);
  try {
    memory.perform_map(0);
    FAIL() << "expected NonExecutableError";
  } catch (const NonExecutableError&) {
    // Neither x nor y may remain allocated after the failed attempt.
    EXPECT_FALSE(memory.is_allocated(x));
    EXPECT_FALSE(memory.is_allocated(y));
    EXPECT_EQ(memory.arena().in_use(), 8);  // just the permanent
  }
}

// ---- the memory plan --------------------------------------------------------

/// A plan under test: the Figure-2 DAG (objects scaled to 8 bytes per unit,
/// the executor's alignment; two processors, MPO) or a registry workload,
/// with its Def. 5 bounds.
struct PlanCase {
  std::string name;
  std::unique_ptr<num::ShmWorkload> workload;  // registry cases
  graph::TaskGraph fig2;                       // the Figure-2 case
  RunPlan fig2_plan;
  std::int64_t min_mem = 0;
  std::int64_t tot_mem = 0;

  const RunPlan& plan() const { return workload ? workload->plan : fig2_plan; }
};

std::unique_ptr<PlanCase> registry_case(const std::string& spec) {
  auto c = std::make_unique<PlanCase>();
  c->name = spec;
  c->workload = num::build_shm_workload(spec);
  c->min_mem = c->workload->min_mem;
  c->tot_mem = c->workload->tot_mem;
  return c;
}

std::unique_ptr<PlanCase> figure2_case() {
  auto c = std::make_unique<PlanCase>();
  c->name = "figure2";
  const graph::TaskGraph proto = graph::make_paper_figure2_graph();
  for (DataId d = 0; d < proto.num_data(); ++d) {
    c->fig2.add_data(proto.data(d).name, 8 * proto.data(d).size_bytes,
                     proto.data(d).owner);
  }
  for (TaskId t = 0; t < proto.num_tasks(); ++t) {
    const graph::Task& task = proto.task(t);
    c->fig2.add_task(task.name, task.reads, task.writes, task.flops,
                     task.commute_group);
  }
  c->fig2.finalize();
  const auto assignment = sched::owner_compute_tasks(c->fig2, 2);
  const sched::Schedule s = sched::schedule_mpo(
      c->fig2, assignment, 2, machine::MachineParams::cray_t3d(2));
  c->fig2_plan = build_run_plan(c->fig2, s);
  const sched::LivenessTable live = sched::analyze_liveness(c->fig2, s);
  c->min_mem = live.min_mem();
  c->tot_mem = live.tot_mem();
  return c;
}

std::vector<std::unique_ptr<PlanCase>> plan_cases() {
  std::vector<std::unique_ptr<PlanCase>> cases;
  cases.push_back(registry_case(
      "cholesky:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=dts"));
  cases.push_back(
      registry_case("lu:matrix=goodwin,scale=0.25,block=8,procs=4"));
  cases.push_back(figure2_case());
  return cases;
}

RunConfig plan_config(std::int64_t capacity, bool active,
                      mem::AllocPolicy policy) {
  RunConfig config;
  config.capacity_per_proc = capacity;
  config.active_memory = active;
  config.alloc_policy = policy;
  return config;
}

using Placements = std::vector<std::pair<DataId, mem::Offset>>;

Placements placements_of(const ProcMemory& memory,
                         const std::vector<DataId>& objects) {
  Placements out;
  for (DataId d : objects) out.emplace_back(d, memory.offset_of(d));
  return out;
}

/// Replays processor p on a fresh ProcMemory, driven as the executor's
/// MAP state ran it, and expects every recorded step to match.
void expect_proc_matches_replay(const RunPlan& plan, ProcId p,
                                const RunConfig& config,
                                const ProcMemoryPlan& got,
                                const std::string& where) {
  const ProcPlan& pp = plan.procs[p];
  ProcMemory memory(plan, p, config.capacity_per_proc, 8,
                    config.alloc_policy, config.slab_arena);
  std::vector<DataId> initial = pp.permanents;
  if (!config.active_memory) {
    memory.preallocate_all();
    for (const sched::VolatileLifetime& v : pp.volatiles) {
      initial.push_back(v.object);
    }
  }
  EXPECT_EQ(got.initial, placements_of(memory, initial)) << where;
  EXPECT_EQ(got.initial_in_use, memory.in_use_bytes()) << where;
  EXPECT_EQ(got.initial_peak, memory.peak_bytes()) << where;
  std::size_t k = 0;
  const auto n = static_cast<std::int32_t>(pp.order.size());
  for (std::int32_t pos = 0; pos < n; ++pos) {
    if (!memory.needs_map(pos)) continue;
    const MapResult map = memory.perform_map(pos);
    const std::string at = cat(where, " step ", k, " pos ", pos);
    ASSERT_LT(k, got.steps.size()) << at;
    const MapStep& step = got.steps[k++];
    EXPECT_EQ(step.pos, pos) << at;
    EXPECT_EQ(step.alloc_upto, map.alloc_upto) << at;
    EXPECT_EQ(step.freed, map.freed) << at;
    EXPECT_EQ(step.placed, placements_of(memory, map.allocated)) << at;
    ASSERT_EQ(step.packages.size(), map.packages.size()) << at;
    for (std::size_t i = 0; i < map.packages.size(); ++i) {
      EXPECT_EQ(step.packages[i].first, map.packages[i].first) << at;
      EXPECT_EQ(step.packages[i].second.reader, p) << at;
      EXPECT_EQ(step.packages[i].second.entries,
                map.packages[i].second.entries)
          << at;
      EXPECT_EQ(step.packages[i].second.seq, 0u) << at;  // unstamped
    }
    EXPECT_EQ(step.in_use, memory.in_use_bytes()) << at;
    EXPECT_EQ(step.peak, memory.peak_bytes()) << at;
  }
  EXPECT_EQ(k, got.steps.size()) << where;
  EXPECT_EQ(got.peak_bytes, memory.peak_bytes()) << where;
}

/// The first NonExecutableError text a fresh replay of every processor
/// hits under `config`, or "" when the whole replay succeeds.
std::string replay_failure(const RunPlan& plan, const RunConfig& config) {
  try {
    for (ProcId p = 0; p < plan.num_procs; ++p) {
      ProcMemory memory(plan, p, config.capacity_per_proc, 8,
                        config.alloc_policy, config.slab_arena);
      if (!config.active_memory) memory.preallocate_all();
      const auto n = static_cast<std::int32_t>(plan.procs[p].order.size());
      for (std::int32_t pos = 0; pos < n; ++pos) {
        if (memory.needs_map(pos)) memory.perform_map(pos);
      }
    }
  } catch (const NonExecutableError& e) {
    return e.what();
  }
  return "";
}

TEST(MapEngine, MemoryPlanEqualsAnIndependentReplay) {
  std::int64_t executable = 0, non_executable = 0, multi_map = 0;
  for (const auto& c : plan_cases()) {
    const std::int64_t caps[] = {c->min_mem, (c->min_mem + c->tot_mem) / 2,
                                 c->tot_mem};
    for (const std::int64_t cap : caps) {
      for (const auto policy :
           {mem::AllocPolicy::kFirstFit, mem::AllocPolicy::kBestFit}) {
        for (const bool active : {true, false}) {
          const RunConfig config = plan_config(cap, active, policy);
          const std::string where =
              cat(c->name, " cap ", cap, active ? " active" : " baseline",
                  policy == mem::AllocPolicy::kBestFit ? " best-fit"
                                                       : " first-fit");
          const auto mp = memory_plan(c->plan(), config);
          ASSERT_EQ(mp->capacity_per_proc, cap) << where;
          ASSERT_EQ(mp->active_memory, active) << where;
          ASSERT_EQ(mp->alloc_policy, policy) << where;
          const std::string failure = replay_failure(c->plan(), config);
          if (!failure.empty()) {
            EXPECT_FALSE(mp->executable) << where;
            EXPECT_EQ(mp->failure, failure) << where;
            EXPECT_TRUE(mp->procs.empty()) << where;
            ++non_executable;
            continue;
          }
          ASSERT_TRUE(mp->executable) << where << ": " << mp->failure;
          ASSERT_EQ(mp->procs.size(),
                    static_cast<std::size_t>(c->plan().num_procs))
              << where;
          for (ProcId p = 0; p < c->plan().num_procs; ++p) {
            const ProcMemoryPlan& proc = mp->procs[p];
            if (!active) EXPECT_TRUE(proc.steps.empty()) << where;
            if (proc.steps.size() > 1) ++multi_map;
            expect_proc_matches_replay(c->plan(), p, config, proc,
                                       cat(where, " p", p));
          }
          ++executable;
        }
      }
    }
  }
  // The sweep covers both outcomes and real recycling.
  EXPECT_GT(executable, 0);
  EXPECT_GT(non_executable, 0);
  EXPECT_GT(multi_map, 0);
}

TEST(MapEngine, MemoryPlanExtentBoundsEveryPlacement) {
  for (const auto& c : plan_cases()) {
    for (const std::int64_t cap : {c->min_mem + c->min_mem / 8,
                                   c->tot_mem}) {
      const RunConfig config =
          plan_config(cap, true, mem::AllocPolicy::kFirstFit);
      const auto mp = memory_plan(c->plan(), config);
      ASSERT_TRUE(mp->executable) << c->name << ": " << mp->failure;
      const svc::RunDemand demand = svc::compute_demand(c->plan(), config);
      std::vector<std::int64_t> extents;
      for (ProcId p = 0; p < c->plan().num_procs; ++p) {
        const ProcMemoryPlan& proc = mp->procs[p];
        const std::string where = cat(c->name, " cap ", cap, " p", p);
        EXPECT_GE(proc.extent_bytes, proc.peak_bytes) << where;
        EXPECT_LE(proc.extent_bytes, cap) << where;
        auto inside = [&](const Placements& placements) {
          for (const auto& [d, off] : placements) {
            const std::int64_t size =
                std::max<std::int64_t>(c->plan().graph->data(d).size_bytes,
                                       1);
            EXPECT_GE(off, 0) << where;
            EXPECT_LE(off + size, proc.extent_bytes) << where;
          }
        };
        inside(proc.initial);
        for (const MapStep& step : proc.steps) inside(step.placed);
        extents.push_back(proc.extent_bytes);
      }
      EXPECT_EQ(demand.extent_bytes_per_proc, extents) << c->name;
    }
  }
}

/// A step's frees precede its placements: the region a freed volatile held
/// is reused by the same MAP, so an executor applying the step must finish
/// with the old object (poison, verification reset) before placing.
TEST(MapEngine, MemoryPlanFreesBeforeReallocation) {
  PipelineFixture f;
  // P1: 8 bytes permanent + room for two volatiles. The first MAP places a
  // and b; the MAP before Rc frees both and places c where a was.
  const auto mp =
      memory_plan(f.plan, plan_config(24, true, mem::AllocPolicy::kFirstFit));
  ASSERT_TRUE(mp->executable) << mp->failure;
  const std::vector<MapStep>& steps = mp->procs[1].steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_TRUE(steps[0].freed.empty());
  ASSERT_EQ(steps[0].placed.size(), 2u);
  const mem::Offset off_a = steps[0].placed[0].second;
  EXPECT_EQ(steps[0].placed[0].first, f.a);
  EXPECT_EQ(steps[1].pos, 2);
  EXPECT_EQ(steps[1].freed, (std::vector<DataId>{f.a, f.b}));
  EXPECT_EQ(steps[1].placed, (Placements{{f.c, off_a}}));
  EXPECT_EQ(steps[1].in_use, 16);
}

TEST(MapEngine, MemoryPlanIsMemoizedPerConfigAndNotCopied) {
  PipelineFixture f;
  const RunConfig config =
      plan_config(24, true, mem::AllocPolicy::kFirstFit);
  const auto first = memory_plan(f.plan, config);
  EXPECT_EQ(memory_plan(f.plan, config), first);
  // compute_demand summarizes the memoized plan rather than rebuilding it.
  EXPECT_TRUE(svc::compute_demand(f.plan, config).executable);
  EXPECT_EQ(memory_plan(f.plan, config), first);

  // Every key field rebuilds the plan: capacity, mode, policy, slab flag.
  std::vector<RunConfig> variants(4, config);
  variants[0].capacity_per_proc = 1 << 10;
  variants[1].active_memory = false;
  variants[1].capacity_per_proc = 1 << 10;  // baseline needs room for all
  variants[2].alloc_policy = mem::AllocPolicy::kBestFit;
  variants[3].slab_arena = true;
  for (const RunConfig& variant : variants) {
    const auto base = memory_plan(f.plan, config);
    const auto rebuilt = memory_plan(f.plan, variant);
    EXPECT_NE(rebuilt, base);
    EXPECT_EQ(rebuilt->capacity_per_proc, variant.capacity_per_proc);
    EXPECT_EQ(rebuilt->active_memory, variant.active_memory);
    EXPECT_EQ(rebuilt->alloc_policy, variant.alloc_policy);
    EXPECT_EQ(rebuilt->slab_arena, variant.slab_arena);
  }
  EXPECT_NE(memory_plan(f.plan, config), first);  // one slot: rebuilt again

  const RunPlan copy = f.plan;
  EXPECT_EQ(copy.memory_memo.plan, nullptr);  // a copy starts empty
  EXPECT_TRUE(svc::compute_demand(copy, config).executable);
  ASSERT_NE(copy.memory_memo.plan, nullptr);  // admission filled the memo
  EXPECT_EQ(memory_plan(copy, config), copy.memory_memo.plan);
  EXPECT_NE(memory_plan(copy, config), memory_plan(f.plan, config));
}

TEST(MapEngine, MemoryPlanConcurrentRequestsShareOnePlan) {
  const auto c = registry_case(
      "cholesky:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=dts");
  const RunConfig config = plan_config(c->min_mem + c->min_mem / 8, true,
                                       mem::AllocPolicy::kFirstFit);
  std::shared_ptr<const MemoryPlan> got[2];
  std::thread a([&] { got[0] = memory_plan(c->plan(), config); });
  std::thread b([&] { got[1] = memory_plan(c->plan(), config); });
  a.join();
  b.join();
  ASSERT_NE(got[0], nullptr);
  EXPECT_EQ(got[0], got[1]);
  EXPECT_TRUE(got[0]->executable) << got[0]->failure;
}

}  // namespace
}  // namespace rapid::rt
