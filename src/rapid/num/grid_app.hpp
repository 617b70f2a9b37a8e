// Exact-integer wavefront workload: a rows x cols grid of int64 counters.
// Row 0 is produced from constants; row i sums two neighbours of row i-1
// ((j) and (j+1) mod cols); every object then gets a doubling update task
// (same-object read-modify-write, its own epoch). Owners are cyclic, so
// almost every edge crosses processors and the data plane carries real
// traffic. All arithmetic is 64-bit integer — any thread interleaving must
// reproduce the sequential interpretation bit-for-bit — which makes this
// the runtime service's cheap numerics oracle: a completed service run is
// checked for exactness without a reference solver.
//
// An optional per-task deterministic delay (a stateless hash of the task
// id, capped at delay_us) stretches task bodies so deadline pressure and
// fault windows are exercisable without changing the computed values.
#pragma once

#include <cstdint>
#include <vector>

#include "rapid/graph/task_graph.hpp"
#include "rapid/num/app.hpp"
#include "rapid/rt/threaded_executor.hpp"

namespace rapid::num {

class GridIntApp final : public App {
 public:
  /// Builds the graph for a rows x cols wavefront on num_procs cyclic
  /// owners. delay_us <= 0 means task bodies run at full speed.
  static GridIntApp build(int rows, int cols, int num_procs,
                          std::int64_t delay_us = 0);

  const graph::TaskGraph& graph() const override { return graph_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::int64_t delay_us() const { return delay_us_; }

  /// Expected final value of every object, from the sequential
  /// interpretation in program order.
  const std::vector<std::int64_t>& expected() const { return expected_; }

  /// Callbacks for the threaded executor. The app must outlive the run.
  rt::ObjectInit make_init() const override;
  rt::TaskBody make_body() const override;
  /// max_abs_error() as a double: exactly 0.0 on a correct run.
  double residual(const rt::ThreadedExecutor& exec) const override;
  bool integer_exact() const override { return true; }

  /// Largest |final - expected| over all objects after a successful run;
  /// exactly 0 when the protocol delivered every version correctly.
  std::int64_t max_abs_error(const rt::ThreadedExecutor& exec) const;

 private:
  graph::TaskGraph graph_;
  std::vector<graph::DataId> objects_;
  std::vector<std::int64_t> expected_;
  int rows_ = 0, cols_ = 0;
  std::int64_t delay_us_ = 0;

  graph::DataId at(int i, int j) const {
    return objects_[static_cast<std::size_t>(i) * cols_ + j];
  }
};

}  // namespace rapid::num
