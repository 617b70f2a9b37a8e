// The numeric application interface: what every workload the inspector can
// turn into a run plan (Cholesky, LU, triangular solve, N-body, the integer
// grid) provides to the pipeline and the executors. The workload registry
// (num/shm_workloads.hpp) builds apps from spec strings; tools hold them
// through this interface instead of one pointer per concrete app.
#pragma once

#include "rapid/graph/task_graph.hpp"
#include "rapid/rt/threaded_executor.hpp"

namespace rapid::num {

class App {
 public:
  virtual ~App() = default;

  virtual const graph::TaskGraph& graph() const = 0;

  /// Callbacks for the threaded executor. The app must outlive the run.
  virtual rt::ObjectInit make_init() const = 0;
  virtual rt::TaskBody make_body() const = 0;

  /// Error of a successful run's result against the app's own reference,
  /// read from the owner heaps (0 = exact).
  virtual double residual(const rt::ThreadedExecutor& exec) const = 0;

  /// True when the app computes in exact integers, so any residual other
  /// than exactly 0.0 is a protocol bug rather than roundoff.
  virtual bool integer_exact() const { return false; }

 protected:
  App() = default;
  App(const App&) = default;
  App(App&&) = default;
  App& operator=(const App&) = default;
  App& operator=(App&&) = default;
};

}  // namespace rapid::num
