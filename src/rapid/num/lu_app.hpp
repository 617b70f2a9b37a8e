// 1-D column-block sparse LU with partial pivoting (paper §5, workload 2).
// The dependence structure is fixed before numeric execution using the
// static symbolic factorization the paper relies on ([6]): the row-merge
// (George–Ng scheme) bound covers the fill of PA = LU for every
// partial-pivoting row order, so tasks, data objects and messages can be
// scheduled statically even though pivot choices are dynamic.
//
// Data object k = column block k, stored dense over rows [row_lo(k), n)
// (the bound's row span, widened so every coupled panel's pivot swaps stay
// in range), followed by the block's pivot indices. Tasks: Factor(k) — the
// pivoted panel factorization — and Update(k, j) for every structurally
// coupled j > k; updates to a block form a chain (pivoting makes them
// non-commutative), which is why RCP's memory behaviour is so poor on LU
// (Figure 7(b)).
#pragma once

#include <vector>

#include "rapid/graph/task_graph.hpp"
#include "rapid/num/app.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sparse/blocks.hpp"
#include "rapid/sparse/csc.hpp"

namespace rapid::num {

using sparse::Index;

class LuApp final : public App {
 public:
  struct TaskInfo {
    enum class Kind { kFactor, kUpdate };
    Kind kind = Kind::kFactor;
    Index k = 0;  // source panel
    Index j = 0;  // update target (kUpdate only)
  };

  /// Builds the task graph for factorizing `a` (square, any structure) with
  /// column blocks of `block_size`, 1-D cyclic owners over num_procs.
  static LuApp build(sparse::CscMatrix a, Index block_size, int num_procs);

  const graph::TaskGraph& graph() const override { return graph_; }
  graph::TaskGraph& mutable_graph() { return graph_; }
  const sparse::CscMatrix& matrix() const { return a_; }
  const sparse::BlockLayout& layout() const { return layout_; }
  Index row_lo(Index block) const { return row_lo_[block]; }
  graph::DataId block_object(Index block) const { return objects_[block]; }
  const TaskInfo& info(graph::TaskId t) const { return task_info_[t]; }

  rt::ObjectInit make_init() const override;
  rt::TaskBody make_body() const override;
  /// Relative factorization residual ‖P·A − L·U‖_F / ‖A‖_F of the run.
  double residual(const rt::ThreadedExecutor& exec) const override;

  /// Replaces the numeric values for the next run. The pattern must match
  /// the build-time matrix exactly — this is the paper's iterative use
  /// (e.g. Newton's method): the dependence structure, schedule and run
  /// plan are built once and reused across executions with new values.
  void update_values(const sparse::CscMatrix& matrix);

  /// Assembles the packed dense LU factor and the global pivot sequence
  /// from the owners' heaps after a run (LAPACK getrf conventions).
  struct Extracted {
    std::vector<double> lu;         // n×n column-major packed L\U
    std::vector<std::int32_t> piv;  // piv[j] = row swapped with j at step j
  };
  Extracted extract(const rt::ThreadedExecutor& exec) const;

 private:
  std::int64_t stored_rows(Index block) const;

  sparse::CscMatrix a_;
  sparse::BlockLayout layout_;
  std::vector<Index> row_lo_;
  std::vector<graph::DataId> objects_;
  graph::TaskGraph graph_;
  std::vector<TaskInfo> task_info_;
};

}  // namespace rapid::num
