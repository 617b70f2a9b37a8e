// 2-D block sparse Cholesky (paper §5, workload 1): the scalar fill pattern
// from symbolic factorization is projected onto a uniform block grid; every
// present lower-triangular block of the factor becomes one data object
// (dense storage, so structurally-zero positions hold exact zeros), and the
// classic POTRF / TRSM / block-update task graph is registered through the
// public TaskGraph API with a 2-D cyclic owner mapping (Rothberg-Schreiber
// style, as the paper uses for scalability). Update tasks targeting the
// same block commute (they accumulate), which the graph captures with
// commute groups.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "rapid/graph/task_graph.hpp"
#include "rapid/num/app.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sparse/blocks.hpp"
#include "rapid/sparse/csc.hpp"
#include "rapid/sparse/symbolic.hpp"

namespace rapid::num {

using sparse::Index;

class CholeskyApp final : public App {
 public:
  struct TaskInfo {
    enum class Kind { kPotrf, kTrsm, kUpdate };
    Kind kind = Kind::kPotrf;
    Index i = 0, j = 0, k = 0;  // block coordinates (kind-dependent)
  };

  /// Builds the task graph for factorizing SPD `a` with square blocks of
  /// `block_size` on `num_procs` processors (2-D cyclic owners over a
  /// pr × pc grid chosen to tile num_procs).
  static CholeskyApp build(sparse::CscMatrix a, Index block_size,
                           int num_procs);

  const graph::TaskGraph& graph() const override { return graph_; }
  graph::TaskGraph& mutable_graph() { return graph_; }
  const sparse::CscMatrix& matrix() const { return a_; }
  const sparse::BlockLayout& layout() const { return layout_; }
  const sparse::CscPattern& block_fill() const { return block_fill_; }
  const TaskInfo& info(graph::TaskId t) const { return task_info_[t]; }

  /// DataId of block (bi, bj), or kInvalidData if the block is not in the
  /// fill pattern.
  graph::DataId block_object(Index bi, Index bj) const;

  /// Callbacks for the threaded executor. The app must outlive the run.
  rt::ObjectInit make_init() const override;
  rt::TaskBody make_body() const override;
  /// Relative factorization residual ‖A − L·Lᵀ‖_F / ‖A‖_F of the run.
  double residual(const rt::ThreadedExecutor& exec) const override;

  /// Assembles the dense factor L from the owners' heaps after a run.
  std::vector<double> extract_l_dense(
      const rt::ThreadedExecutor& exec) const;

 private:
  sparse::CscMatrix a_;
  sparse::BlockLayout layout_;
  sparse::CscPattern block_fill_;
  graph::TaskGraph graph_;
  std::vector<TaskInfo> task_info_;
  std::unordered_map<std::int64_t, graph::DataId> object_of_block_;
  std::vector<std::pair<Index, Index>> block_of_object_;  // DataId -> (bi,bj)
};

}  // namespace rapid::num
