// The workload registry: the one place a workload spec string becomes an
// app (task graph + task bodies), an owner-compute schedule and a run plan.
// Every CLI, bench and the runtime service build workloads through it; the
// service's plan cache keys on the spec strings.
//
// Grammar: `<app>:<key>=<value>,...` — keys in any order, each at most
// once, all optional.
//
//   app         keys (defaults)
//   cholesky    matrix: grid=12 (the 2-D grid Laplacian, nested-dissection
//   lu            ordered) or matrix=bcsstk15|bcsstk24|bcsstk33|goodwin with
//   trisolve      scale=1 (the paper stand-ins of num/workloads.hpp, scale
//                 in (0, 1]); block=4. cholesky and trisolve need an SPD
//                 matrix, so not goodwin.
//   grid        rows=8, cols=8, delay=0 (max per-task delay in µs)
//   nbody       none: the default NBodyConfig (6x6 cells, 8 particles per
//                 cell, 3 timesteps)
//   every app   procs=4, sched=rcp|mpo|dts (default rcp)
//
// Values are whole tokens: an integer key takes a decimal integer that fits
// its type, scale takes a decimal number. A key the app does not take, a
// repeated key, or trailing characters are a rapid::Error naming the key.
// Examples:
//
//   cholesky:grid=12,block=4,procs=4,sched=dts
//   lu:matrix=goodwin,scale=0.4,block=10,procs=4
//   trisolve:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=mpo
//   nbody:procs=4,sched=mpo
//   grid:rows=8,cols=8,procs=4,delay=0
//
// Everything in the pipeline is deterministic (no seeds, no wall-clock;
// grid's optional per-task delay draws from a stateless hash of the task
// id), so spec equality implies plan equality across processes and
// machines. The runtime service uses these specs as its RunRequest plan
// language.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "rapid/num/app.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/schedule.hpp"
#include "rapid/sparse/csc.hpp"

namespace rapid::num {

/// A workload built from a spec string: the app, its schedule and run plan,
/// and the liveness floor. The app owns the graph the plan points into, so
/// keep the ShmWorkload alive for the whole run.
struct ShmWorkload {
  std::string spec;
  std::unique_ptr<App> app;
  sched::Schedule schedule;
  rt::RunPlan plan;
  std::int64_t min_mem = 0;
  /// Sum of all live footprints (always executable, even with the threaded
  /// executor's 8-byte alignment padding on top of Def. 5 accounting).
  std::int64_t tot_mem = 0;

  const graph::TaskGraph& graph() const { return app->graph(); }
  rt::ObjectInit make_init() const { return app->make_init(); }
  rt::TaskBody make_body() const { return app->make_body(); }
  double residual(const rt::ThreadedExecutor& exec) const {
    return app->residual(exec);
  }
};

/// Parses the spec and builds app, schedule and plan. Throws rapid::Error
/// on any malformed spec.
std::unique_ptr<ShmWorkload> build_shm_workload(const std::string& spec);

/// Parses the spec and builds only the app, for callers that schedule the
/// graph several ways themselves (the ordering sweeps of the table benches).
std::unique_ptr<App> build_app(const std::string& spec);

/// The registry's scheduling stage: owner-compute task placement on `procs`
/// Cray-T3D processors, ordered by `ordering` (rcp, mpo or dts).
sched::Schedule schedule_owner_compute(const graph::TaskGraph& graph,
                                       int procs, std::string_view ordering);

/// The spec of `app` over the paper stand-in `matrix`. scale is written in
/// its shortest round-trip form, so re-parsing the spec reads back the
/// same double and rebuilds the same plan.
std::string matrix_spec(std::string_view app, std::string_view matrix,
                        double scale, sparse::Index block, int procs,
                        std::string_view ordering = "rcp");

/// The spec of a seed workload as the CLIs name them: cholesky and trisolve
/// on the BCSSTK24 stand-in and lu on goodwin (at `scale`, with `block`), or
/// nbody (fixed size, so scale and block do not apply).
std::string seed_spec(std::string_view name, double scale,
                      sparse::Index block, int procs,
                      std::string_view ordering = "rcp");

}  // namespace rapid::num
