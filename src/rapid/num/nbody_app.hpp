// Cell-based N-body galaxy simulation — the paper's other motivating
// application class ("irregular applications which involve iterative
// computation and have invariant or slowly changed dependence structures,
// such as those in sparse matrix computation and N-body galaxy
// simulations", §2).
//
// The domain is a W×H grid of cells, each owning a fixed set of particles.
// One timestep is:
//   SUMMARY(c)   particles[c]            -> summary[c]   (mass, Σx, Σy)
//   ZROW(r)      -                       -> rowsum[r] = 0
//   ROWACC(r,c)  summary[c]              +> rowsum[r]    (commuting)
//   ZGLOB        -                       -> global = 0
//   GLOBACC(r)   rowsum[r]               +> global       (commuting)
//   FORCE(c)     particles[3x3 nbrs], summaries[3x3 nbrs], global
//                                        -> forces[c]
//                (near field: softened pairwise gravity; far field: the
//                 global aggregate minus the near cells, as a point mass)
//   UPDATE(c)    forces[c]               +> particles[c] (leapfrog)
// and T timesteps are unrolled into one task graph, exactly how RAPID's
// inspector/executor split amortizes preprocessing over iterations. Cell
// membership is static across steps (the "invariant dependence structure"
// assumption), so the same plan drives every iteration.
//
// Object sizes are deliberately mixed — particle sets (4·P doubles), force
// buffers (2·P), 3-double summaries — giving the runtime the
// mixed-granularity traffic the paper's model is about, including multiple
// content versions of the same object per destination across timesteps.
#pragma once

#include <vector>

#include "rapid/graph/task_graph.hpp"
#include "rapid/num/app.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/support/rng.hpp"

namespace rapid::num {

struct NBodyConfig {
  std::int32_t width = 6;               // cells per row
  std::int32_t height = 6;              // rows
  std::int32_t particles_per_cell = 8;  // fixed membership
  std::int32_t timesteps = 3;
  double dt = 1e-3;
  double softening = 5e-2;
  std::uint64_t seed = 2026;
};

class NBodyApp final : public App {
 public:
  struct TaskInfo {
    enum class Kind {
      kSummary,
      kZeroRow,
      kRowAccumulate,
      kZeroGlobal,
      kGlobalAccumulate,
      kForce,
      kUpdate,
    };
    Kind kind = Kind::kSummary;
    std::int32_t cell = -1;  // cell index (kSummary/kRowAcc/kForce/kUpdate)
    std::int32_t row = -1;   // row index (kZeroRow/kRowAcc/kGlobalAcc)
    std::int32_t step = 0;
  };

  static NBodyApp build(const NBodyConfig& config, int num_procs);

  const graph::TaskGraph& graph() const override { return graph_; }
  graph::TaskGraph& mutable_graph() { return graph_; }
  const NBodyConfig& config() const { return config_; }
  const TaskInfo& info(graph::TaskId t) const { return task_info_[t]; }

  rt::ObjectInit make_init() const override;
  rt::TaskBody make_body() const override;
  /// Max-norm relative error of the run's particles against
  /// reference_run() (only the commuting reductions' order may differ).
  double residual(const rt::ThreadedExecutor& exec) const override;

  /// All particle states (x, y, vx, vy per particle) after a run, in cell
  /// order — comparable against reference_run().
  std::vector<double> extract_particles(
      const rt::ThreadedExecutor& exec) const;

  /// Sequential reference simulation with identical arithmetic per task;
  /// only the accumulation order of the commuting reductions may differ
  /// (floating-point associativity), so compare with a tolerance.
  std::vector<double> reference_run() const;

 private:
  std::int32_t num_cells() const { return config_.width * config_.height; }
  std::int32_t cell_of(std::int32_t x, std::int32_t y) const {
    return y * config_.width + x;
  }
  std::vector<double> initial_particles() const;

  // One task's arithmetic, shared by the runtime body and the reference.
  // `self_index` locates the target cell inside the sorted near lists.
  void do_summary(const double* particles, double* summary) const;
  void do_force(std::size_t self_index, const double* const* near_particles,
                const double* const* near_summaries, std::size_t near_count,
                const double* global, double* forces) const;
  void do_update(const double* forces, double* particles) const;

  NBodyConfig config_;
  graph::TaskGraph graph_;
  std::vector<TaskInfo> task_info_;
  std::vector<graph::DataId> particles_, summaries_, forces_;  // per cell
  std::vector<graph::DataId> rowsums_;                         // per row
  graph::DataId global_ = graph::kInvalidData;
  std::vector<std::vector<std::int32_t>> neighbors_;  // per cell, sorted
};

}  // namespace rapid::num
