// Block sparse triangular solve — the other workload RAPID shipped with
// ("sparse Cholesky factorization and triangular solvers", §2). Given an
// SPD matrix, this app builds the task graph of the two-phase solve
//   L y = b,   Lᵀ x = y
// over the factor's block structure: each present block of L is a read-only
// data object (version-0 content), each block segment of the solution
// vector is a read-modify-write object. Off-diagonal updates into the same
// segment commute, giving the graph wide reduction fans; the diagonal
// solves chain along the elimination order — a very different DAG shape
// from the factorization apps, which is exactly why it is a good runtime
// stressor.
//
// The factor values are computed by the reference dense Cholesky at build
// time (this app validates the runtime, not a sparse factorization — use
// CholeskyApp for that).
#pragma once

#include <vector>

#include "rapid/graph/task_graph.hpp"
#include "rapid/num/app.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sparse/blocks.hpp"
#include "rapid/sparse/csc.hpp"

namespace rapid::num {

using sparse::Index;

class TriSolveApp final : public App {
 public:
  struct TaskInfo {
    enum class Kind {
      kForwardSolve,    // y_j = L_jj^{-1} y_j
      kForwardUpdate,   // y_i -= L_ij * y_j           (i > j, commuting)
      kBackwardSolve,   // x_j = L_jj^{-T} x_j
      kBackwardUpdate,  // x_j -= L_ijᵀ * x_i          (i > j, commuting)
    };
    Kind kind = Kind::kForwardSolve;
    Index i = 0, j = 0;
  };

  /// Builds the solve graph for SPD `a` with right-hand side b = A·1 (so
  /// the exact solution is the all-ones vector). Block (i,j) of L lives on
  /// the owner of segment i (2-D would also work; this matches RAPID's
  /// vector-aligned placement); segments are distributed cyclically.
  static TriSolveApp build(sparse::CscMatrix a, Index block_size,
                           int num_procs);

  const graph::TaskGraph& graph() const override { return graph_; }
  graph::TaskGraph& mutable_graph() { return graph_; }
  const sparse::CscMatrix& matrix() const { return a_; }
  const sparse::BlockLayout& layout() const { return layout_; }
  const TaskInfo& info(graph::TaskId t) const { return task_info_[t]; }

  rt::ObjectInit make_init() const override;
  rt::TaskBody make_body() const override;
  /// solution_error() of the run's solution.
  double residual(const rt::ThreadedExecutor& exec) const override;

  /// Gathers the solution vector after a run.
  std::vector<double> extract_solution(
      const rt::ThreadedExecutor& exec) const;

  /// max_i |x_i - 1| for the built right-hand side.
  static double solution_error(const std::vector<double>& x);

 private:
  graph::DataId l_block(Index bi, Index bj) const;

  sparse::CscMatrix a_;
  sparse::BlockLayout layout_;
  sparse::CscPattern block_fill_;  // lower-triangular block pattern of L
  std::vector<double> l_dense_;    // reference factor, column-major
  std::vector<double> rhs_;
  graph::TaskGraph graph_;
  std::vector<TaskInfo> task_info_;
  std::vector<graph::DataId> segment_;            // per block row
  std::vector<std::vector<graph::DataId>> lmap_;  // [bi][bj] or -1
};

}  // namespace rapid::num
