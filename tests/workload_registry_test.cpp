// Golden run-plan fingerprints. Every spec string the repo runs (tests,
// bench_service, the end-to-end benchmark's hot specs and a sample of its
// cold grid specs) and every plan a CLI or bench builds at its CI flags is
// pinned by rt::plan_fingerprint (per-processor task order and permanent
// bytes) plus the liveness floor MIN_MEM and the no-recycling footprint TOT.
// The tool rows were recorded from the plans the tools built by hand before
// they went through the workload registry, so a registry or scheduler change
// that moves any plan fails here, naming the spec.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/support/check.hpp"

namespace rapid::num {
namespace {

struct Golden {
  const char* spec;
  std::uint64_t fingerprint;
  std::int64_t min_mem;
  std::int64_t tot_mem;
};

void expect_golden(const Golden& g) {
  const auto wl = build_shm_workload(g.spec);
  EXPECT_EQ(rt::plan_fingerprint(wl->plan), g.fingerprint) << g.spec;
  EXPECT_EQ(wl->min_mem, g.min_mem) << g.spec;
  EXPECT_EQ(wl->tot_mem, g.tot_mem) << g.spec;
}

// Specs as the tests, bench_service and the end-to-end benchmark submit
// them (including defaults and explicit orderings).
constexpr Golden kSpecs[] = {
    {"cholesky:grid=10,block=4,procs=4", 15765693890901517706ull, 5376, 12800},
    {"cholesky:grid=8,block=4,procs=4", 10098890129746507407ull, 2816, 4352},
    {"lu:grid=10,block=4,procs=4", 4533370559195006025ull, 36384, 61568},
    {"lu:grid=8,block=4,procs=4", 8158606002238876034ull, 9504, 28544},
    {"grid:rows=6,cols=6,procs=4", 3933417767541410885ull, 88, 200},
    {"grid:rows=6,cols=10,procs=4", 10093776799413205197ull, 136, 328},
    {"grid:rows=8,cols=8,procs=4", 16111672618478549973ull, 136, 240},
    {"grid:rows=8,cols=8,procs=4,delay=1000",
     16111672618478549973ull, 136, 240},
    {"grid:rows=8,cols=8,procs=4,delay=1500",
     16111672618478549973ull, 136, 240},
    {"grid:rows=8,cols=8,procs=4,delay=4000",
     16111672618478549973ull, 136, 240},
    {"grid:rows=8,cols=8,procs=4,delay=8000",
     16111672618478549973ull, 136, 240},
    {"grid:rows=8,cols=8,procs=4,delay=20000",
     16111672618478549973ull, 136, 240},
    {"grid:rows=8,cols=8,procs=2", 14317713178718002147ull, 264, 480},
    {"grid:rows=6,cols=10,procs=2", 2672200846255603175ull, 248, 440},
    {"cholesky:grid=8,block=4,procs=2", 15384205903119398961ull, 3840, 5504},
    {"lu:grid=8,block=4,procs=2", 8634500936347316980ull, 20192, 28544},
    {"grid:rows=4,cols=4,procs=2", 6255056956514832851ull, 72, 112},
    {"grid:rows=4,cols=11,procs=2", 5225538304858847287ull, 192, 312},
    {"grid:rows=7,cols=9,procs=2", 1321350090158498072ull, 272, 472},
    {"grid:rows=11,cols=5,procs=2", 4562523614401495412ull, 240, 424},
    {"grid:rows=11,cols=11,procs=2", 590388649895690930ull, 504, 928},
    {"cholesky:", 15568868688288092694ull, 8064, 17280},
    {"grid:rows=8,cols=8,procs=4,sched=mpo", 16116546911933277277ull, 136, 240},
    {"cholesky:grid=8,block=4,procs=4,sched=dts",
     14094970346627880947ull, 2560, 4352},
    {"lu:grid=8,block=4,procs=4,sched=mpo",
     8158606002238876034ull, 9504, 28544},
};

// The plans the CLIs and benches run at their CI flags, in the spec each
// tool now composes from those flags: rapid_check (cholesky/lu, scale 0.4,
// block 10, p 4, and its p=2 CI step --scale=0.2 --block=8 --procs=2, kept
// beside the p=4 plans at the same scale and block), rapid_trace (scale
// 0.5, block 12, p 8), bench_ablation_allocator (--scale=0.25, p 8), and
// the four seed apps at scale 0.25, block 6, p 4, MPO, which no tool flag
// builds any more but which stay pinned.
constexpr Golden kToolPlans[] = {
    {"cholesky:matrix=bcsstk24,scale=0.4,block=10,procs=4,sched=rcp",
     16371592417107167832ull, 93888, 218400},
    {"lu:matrix=goodwin,scale=0.4,block=10,procs=4,sched=rcp",
     8875784620094595552ull, 3384800, 6890016},
    {"cholesky:matrix=bcsstk24,scale=0.5,block=12,procs=8,sched=rcp",
     8498989355017540372ull, 108288, 278784},
    {"lu:matrix=goodwin,scale=0.5,block=12,procs=8,sched=rcp",
     14138525523073766524ull, 5739840, 17256784},
    {"cholesky:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=mpo",
     12608563503206764637ull, 16992, 50832},
    {"lu:matrix=goodwin,scale=0.25,block=6,procs=4,sched=mpo",
     2440222730414074153ull, 329040, 1179600},
    {"trisolve:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=mpo",
     17482980841785705728ull, 21384, 31464},
    {"nbody:procs=4,sched=mpo", 13207831049564466298ull, 10104, 10104},
    {"cholesky:matrix=bcsstk24,scale=0.2,block=8,procs=2,sched=rcp",
     8921951068388235640ull, 24064, 31744},
    {"cholesky:matrix=bcsstk24,scale=0.2,block=8,procs=4,sched=rcp",
     8886720544565502212ull, 15872, 26112},
    {"lu:matrix=goodwin,scale=0.2,block=8,procs=2,sched=rcp",
     13716756821400870128ull, 382864, 484240},
    {"lu:matrix=goodwin,scale=0.2,block=8,procs=4,sched=rcp",
     9372055431492346844ull, 343056, 484240},
    {"cholesky:matrix=bcsstk24,scale=0.25,block=16,procs=8,sched=mpo",
     5346917301132935351ull, 20736, 62720},
    {"lu:matrix=goodwin,scale=0.15,block=12,procs=8,sched=mpo",
     16317977004003243904ull, 45504, 188176},
    {"trisolve:grid=14,block=6,procs=8,sched=mpo",
     9642476657619159137ull, 15216, 19136},
    // seed_spec("trisolve", 0.1 + 0.2, 6, 4, "mpo"): a scale that only
    // round-trips in full precision. The plan cache keys on spec strings,
    // so rebuilding from the string must give the plan pinned here.
    {"trisolve:matrix=bcsstk24,scale=0.30000000000000004,block=6,procs=4,"
     "sched=mpo",
     15032216324112758236ull, 32592, 47520},
};

TEST(GoldenPlans, SpecStrings) {
  for (const Golden& g : kSpecs) expect_golden(g);
}

TEST(GoldenPlans, ToolPlans) {
  for (const Golden& g : kToolPlans) expect_golden(g);
}

TEST(GoldenPlans, ToolSpecsAreComposedAsPinned) {
  EXPECT_EQ(seed_spec("cholesky", 0.4, 10, 4),
            "cholesky:matrix=bcsstk24,scale=0.4,block=10,procs=4,sched=rcp");
  EXPECT_EQ(seed_spec("trisolve", 0.25, 6, 4, "mpo"),
            "trisolve:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=mpo");
  EXPECT_EQ(seed_spec("nbody", 0.25, 6, 4, "mpo"), "nbody:procs=4,sched=mpo");
  EXPECT_EQ(seed_spec("trisolve", 0.1 + 0.2, 6, 4, "mpo"),
            "trisolve:matrix=bcsstk24,scale=0.30000000000000004,block=6,"
            "procs=4,sched=mpo");
  EXPECT_EQ(matrix_spec("lu", "goodwin", 0.25 * 0.6, 12, 8, "mpo"),
            "lu:matrix=goodwin,scale=0.15,block=12,procs=8,sched=mpo");
  // Shortest round-trip form, not a fixed precision: re-parsing the spec
  // must read back the same double.
  EXPECT_EQ(matrix_spec("lu", "goodwin", 0.1 + 0.2, 8, 2),
            "lu:matrix=goodwin,scale=0.30000000000000004,block=8,procs=2,"
            "sched=rcp");
}

TEST(WorkloadSpec, BuildsEveryApp) {
  for (const char* spec :
       {"cholesky:matrix=bcsstk15,scale=0.25,block=8,procs=2",
        "lu:matrix=bcsstk33,scale=0.2,block=8,procs=2",
        "trisolve:grid=8,block=4,procs=2,sched=dts", "nbody:procs=3",
        "grid:rows=3,cols=5,procs=2,delay=10"}) {
    const auto wl = build_shm_workload(spec);
    EXPECT_GT(wl->graph().num_tasks(), 0) << spec;
    EXPECT_EQ(build_app(spec)->graph().num_tasks(), wl->graph().num_tasks())
        << spec;
  }
}

/// The rapid::Error message build_shm_workload throws for `spec`.
std::string spec_error(const std::string& spec) {
  try {
    build_shm_workload(spec);
  } catch (const Error& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(WorkloadSpec, RejectsMalformedValuesNamingTheKey) {
  const struct {
    const char* spec;
    const char* names;
  } cases[] = {
      {"grid:rows=abc,cols=8,procs=2", "rows=abc"},
      {"grid:rows=8x,cols=8,procs=2", "rows=8x"},
      {"grid:rows=+8,cols=8,procs=2", "rows=+8"},
      {"grid:rows=,cols=8,procs=2", "rows="},
      {"grid:rows=99999999999,cols=8,procs=2", "out of range"},
      {"grid:rows=8,cols=8,rows=9", "\"rows\" given twice"},
      {"grid:rows=8,block=4", "no key \"block\""},
      {"grid:rows=8,colz=4", "no key \"colz\""},
      {"nbody:grid=8", "no key \"grid\""},
      {"lu:matrix=goodwin,scale=0.5x", "scale=0.5x"},
      {"lu:matrix=goodwin,scale=0", "scale must be in (0, 1]"},
      {"lu:matrix=goodwin,scale=1.5", "scale must be in (0, 1]"},
      {"lu:matrix=goodwin,scale=nan", "scale must be in (0, 1]"},
      {"lu:scale=0.5", "scale needs matrix"},
      {"lu:grid=8,matrix=goodwin", "grid and matrix are exclusive"},
      {"lu:matrix=bcsstk99", "unknown matrix \"bcsstk99\""},
      {"lu:matrix=,scale=0.5", "unknown matrix \"\""},
      {"cholesky:matrix=goodwin,scale=0.2", "needs an SPD matrix"},
      {"trisolve:matrix=goodwin,scale=0.2", "needs an SPD matrix"},
      {"cholesky:sched=fifo", "sched must be rcp, dts or mpo"},
      {"cholesky:procs=0", "degenerate"},
      {"fft:n=8", "unknown app \"fft\""},
      {"grid:rows", "expected key=value"},
  };
  for (const auto& c : cases) {
    const std::string what = spec_error(c.spec);
    EXPECT_NE(what.find(c.names), std::string::npos)
        << c.spec << " -> " << what;
  }
}

}  // namespace
}  // namespace rapid::num
