// Correctness gates applied to every solve. The residuals are matrix-free
// (one sparse product and one pass over the factor blocks), so a check costs
// about as much as reading the factor once instead of the dense O(n^2)
// memory and O(n * nnz) work of num::cholesky_residual / num::lu_residual.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/lu_app.hpp"
#include "rapid/rt/report.hpp"
#include "rapid/rt/threaded_executor.hpp"

namespace perfbench {

/// Every data object read back from its owner's heap after a run, indexed
/// by DataId (each object of both apps is one factor block). Reading them
/// is what a caller pays to get the result.
using Factor = std::vector<std::vector<std::byte>>;

Factor read_factor(const rapid::graph::TaskGraph& graph,
                   const rapid::rt::ThreadedExecutor& exec);

/// ||A x - L L^T x|| / (||A||_F ||x||) for a fixed pseudo-random x.
double cholesky_residual(const rapid::num::CholeskyApp& app, const Factor& f);
/// ||P A x - L U x|| / (||A||_F ||x||), with the row interchanges the run
/// time leaves unapplied to earlier panels folded into the product.
double lu_residual(const rapid::num::LuApp& app, const Factor& f);

/// Compares the counters a run must reproduce exactly against the
/// discrete-event simulator on the same plan and config. Returns an empty
/// string when they agree, else a description of the first mismatch.
std::string oracle_mismatch(const rapid::rt::RunReport& run,
                            const rapid::rt::RunReport& oracle);

}  // namespace perfbench
