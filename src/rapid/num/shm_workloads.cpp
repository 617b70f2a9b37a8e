#include "rapid/num/shm_workloads.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/grid_app.hpp"
#include "rapid/num/lu_app.hpp"
#include "rapid/num/nbody_app.hpp"
#include "rapid/num/trisolve_app.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/sparse/ordering.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::num {

namespace {

struct SpecParams {
  std::string_view app;
  std::string_view matrix;            // empty: the nested-dissection grid
  std::optional<sparse::Index> grid;  // default 12
  std::optional<double> scale;        // default 1
  sparse::Index block = 4;
  int procs = 4;
  std::string_view sched = "rcp";
  int rows = 8;
  int cols = 8;
  std::int64_t delay = 0;
};

SpecParams parse_spec(const std::string& spec) {
  SpecParams p;
  const std::string_view text(spec);
  const std::size_t colon = text.find(':');
  p.app = text.substr(0, colon);
  const bool factor =
      p.app == "cholesky" || p.app == "lu" || p.app == "trisolve";
  const bool grid = p.app == "grid";
  RAPID_CHECK(factor || grid || p.app == "nbody",
              cat("workload spec: unknown app \"", p.app,
                  "\" (want cholesky, lu, trisolve, grid or nbody) in \"",
                  spec, "\""));
  const std::string_view rest = colon == std::string_view::npos
                                    ? std::string_view()
                                    : text.substr(colon + 1);
  const std::string where = cat("workload spec \"", spec, "\"");
  std::vector<std::string_view> seen;
  std::size_t pos = 0;
  while (pos < rest.size()) {
    std::size_t comma = rest.find(',', pos);
    if (comma == std::string_view::npos) comma = rest.size();
    const std::string_view kv = rest.substr(pos, comma - pos);
    pos = comma + 1;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    RAPID_CHECK(eq != std::string_view::npos,
                cat("workload spec: expected key=value, got \"", kv,
                    "\" in \"", spec, "\""));
    const std::string_view key = kv.substr(0, eq);
    const std::string_view val = kv.substr(eq + 1);
    RAPID_CHECK(std::find(seen.begin(), seen.end(), key) == seen.end(),
                cat("workload spec: key \"", key, "\" given twice in \"",
                    spec, "\""));
    seen.push_back(key);
    if (factor && key == "grid") {
      p.grid = parse_number<sparse::Index>(where, key, val);
    } else if (factor && key == "matrix") {
      RAPID_CHECK(val == "bcsstk15" || val == "bcsstk24" ||
                      val == "bcsstk33" || val == "goodwin",
                  cat("workload spec: unknown matrix \"", val,
                      "\" (want bcsstk15, bcsstk24, bcsstk33 or goodwin) "
                      "in \"",
                      spec, "\""));
      p.matrix = val;
    } else if (factor && key == "scale") {
      p.scale = parse_number<double>(where, key, val);
    } else if (factor && key == "block") {
      p.block = parse_number<sparse::Index>(where, key, val);
    } else if (key == "procs") {
      p.procs = parse_number<int>(where, key, val);
    } else if (key == "sched") {
      p.sched = val;
    } else if (grid && key == "rows") {
      p.rows = parse_number<int>(where, key, val);
    } else if (grid && key == "cols") {
      p.cols = parse_number<int>(where, key, val);
    } else if (grid && key == "delay") {
      p.delay = parse_number<std::int64_t>(where, key, val);
    } else {
      RAPID_FAIL(cat("workload spec: ", p.app, " takes no key \"", key,
                     "\" in \"", spec, "\""));
    }
  }
  RAPID_CHECK(!(p.grid && !p.matrix.empty()),
              cat("workload spec: grid and matrix are exclusive in \"", spec,
                  "\""));
  RAPID_CHECK(!p.scale || !p.matrix.empty(),
              cat("workload spec: scale needs matrix in \"", spec, "\""));
  RAPID_CHECK(p.scale.value_or(1.0) > 0.0 && p.scale.value_or(1.0) <= 1.0,
              cat("workload spec: scale must be in (0, 1] in \"", spec,
                  "\""));
  RAPID_CHECK(p.grid.value_or(12) >= 2 && p.block >= 1 && p.procs >= 1 &&
                  p.rows >= 1 && p.cols >= 1 && p.delay >= 0,
              cat("workload spec: degenerate parameters in \"", spec, "\""));
  RAPID_CHECK(p.sched == "rcp" || p.sched == "dts" || p.sched == "mpo",
              cat("workload spec: sched must be rcp, dts or mpo in \"", spec,
                  "\""));
  return p;
}

/// The matrix of a cholesky/lu/trisolve spec.
Workload spec_matrix(const SpecParams& p) {
  const double scale = p.scale.value_or(1.0);
  if (p.matrix.empty()) {
    const sparse::Index s = p.grid.value_or(12);
    return {"grid", sparse::grid_laplacian_2d(s, s).permuted_symmetric(
                        sparse::nested_dissection_2d(s, s)),
            true};
  }
  if (p.matrix == "bcsstk15") return bcsstk15_like(scale);
  if (p.matrix == "bcsstk24") return bcsstk24_like(scale);
  if (p.matrix == "bcsstk33") return bcsstk33_like(scale);
  return goodwin_like(scale);
}

std::unique_ptr<App> make_app(const SpecParams& p, const std::string& spec) {
  if (p.app == "grid") {
    return std::make_unique<GridIntApp>(
        GridIntApp::build(p.rows, p.cols, p.procs, p.delay));
  }
  if (p.app == "nbody") {
    return std::make_unique<NBodyApp>(NBodyApp::build(NBodyConfig{}, p.procs));
  }
  Workload w = spec_matrix(p);
  if (p.app == "lu") {
    return std::make_unique<LuApp>(
        LuApp::build(std::move(w.matrix), p.block, p.procs));
  }
  RAPID_CHECK(w.spd, cat("workload spec: ", p.app, " needs an SPD matrix, ",
                         w.name, " is not, in \"", spec, "\""));
  if (p.app == "cholesky") {
    return std::make_unique<CholeskyApp>(
        CholeskyApp::build(std::move(w.matrix), p.block, p.procs));
  }
  return std::make_unique<TriSolveApp>(
      TriSolveApp::build(std::move(w.matrix), p.block, p.procs));
}

}  // namespace

std::unique_ptr<ShmWorkload> build_shm_workload(const std::string& spec) {
  const SpecParams p = parse_spec(spec);
  auto out = std::make_unique<ShmWorkload>();
  out->spec = spec;
  out->app = make_app(p, spec);
  const graph::TaskGraph& g = out->graph();
  out->schedule = schedule_owner_compute(g, p.procs, p.sched);
  out->plan = rt::build_run_plan(g, out->schedule);
  const auto liveness = sched::analyze_liveness(g, out->schedule);
  out->min_mem = liveness.min_mem();
  out->tot_mem = liveness.tot_mem();
  return out;
}

std::unique_ptr<App> build_app(const std::string& spec) {
  return make_app(parse_spec(spec), spec);
}

sched::Schedule schedule_owner_compute(const graph::TaskGraph& graph,
                                       int procs, std::string_view ordering) {
  const auto assignment = sched::owner_compute_tasks(graph, procs);
  const auto params = machine::MachineParams::cray_t3d(procs);
  if (ordering == "mpo") {
    return sched::schedule_mpo(graph, assignment, procs, params);
  }
  if (ordering == "dts") {
    return sched::schedule_dts(graph, assignment, procs, params);
  }
  RAPID_CHECK(ordering == "rcp", cat("unknown ordering \"", ordering,
                                     "\" (want rcp, mpo or dts)"));
  return sched::schedule_rcp(graph, assignment, procs, params);
}

std::string matrix_spec(std::string_view app, std::string_view matrix,
                        double scale, sparse::Index block, int procs,
                        std::string_view ordering) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), scale);
  return cat(app, ":matrix=", matrix, ",scale=",
             std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)),
             ",block=", block, ",procs=", procs, ",sched=", ordering);
}

std::string seed_spec(std::string_view name, double scale,
                      sparse::Index block, int procs,
                      std::string_view ordering) {
  if (name == "nbody") return cat("nbody:procs=", procs, ",sched=", ordering);
  RAPID_CHECK(name == "cholesky" || name == "lu" || name == "trisolve",
              cat("unknown workload '", name,
                  "' (expected cholesky|lu|trisolve|nbody)"));
  return matrix_spec(name, name == "lu" ? "goodwin" : "bcsstk24", scale,
                     block, procs, ordering);
}

}  // namespace rapid::num
