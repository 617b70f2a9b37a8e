#include "rapid/num/trisolve_app.hpp"

#include <cmath>
#include <cstring>

#include "rapid/num/kernels.hpp"
#include "rapid/num/reference.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/sparse/symbolic.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::num {

graph::DataId TriSolveApp::l_block(Index bi, Index bj) const {
  return lmap_[bi][bj];
}

TriSolveApp TriSolveApp::build(sparse::CscMatrix a, Index block_size,
                               int num_procs) {
  RAPID_CHECK(a.n_rows() == a.n_cols(), "triangular solve needs square SPD");
  RAPID_CHECK(num_procs > 0, "num_procs must be positive");
  TriSolveApp app;
  app.a_ = std::move(a);
  const Index n = app.a_.n_cols();
  app.layout_ = sparse::BlockLayout(n, block_size);
  const Index nb = app.layout_.num_blocks;

  // Reference factor and right-hand side (exact solution = ones).
  app.l_dense_ = dense_cholesky(app.a_.to_dense(), n);
  app.rhs_ = sparse::rhs_for_unit_solution(app.a_);

  const sparse::SymbolicFactor symbolic =
      sparse::symbolic_cholesky(app.a_.pattern);
  app.block_fill_ =
      sparse::project_to_blocks(symbolic.l_pattern, app.layout_, app.layout_);

  // Objects: solution segments (cyclic owners) and L blocks (placed with
  // their row segment).
  app.segment_.resize(static_cast<std::size_t>(nb));
  for (Index bi = 0; bi < nb; ++bi) {
    app.segment_[bi] = app.graph_.add_data(
        cat("y[", bi, "]"),
        static_cast<std::int64_t>(app.layout_.block_width(bi)) * 8,
        static_cast<graph::ProcId>(bi % num_procs));
  }
  app.lmap_.assign(static_cast<std::size_t>(nb),
                   std::vector<graph::DataId>(static_cast<std::size_t>(nb),
                                              graph::kInvalidData));
  for (Index bj = 0; bj < nb; ++bj) {
    for (Index e = app.block_fill_.col_ptr[bj];
         e < app.block_fill_.col_ptr[bj + 1]; ++e) {
      const Index bi = app.block_fill_.row_idx[e];
      const std::int64_t bytes =
          static_cast<std::int64_t>(app.layout_.block_width(bi)) *
          app.layout_.block_width(bj) * 8;
      app.lmap_[bi][bj] = app.graph_.add_data(
          cat("L[", bi, ",", bj, "]"), bytes,
          static_cast<graph::ProcId>(bi % num_procs));
    }
  }

  // Forward sweep: for each column block j, solve the diagonal then push
  // updates down. Updates into the same segment commute (group = segment).
  for (Index bj = 0; bj < nb; ++bj) {
    const Index w = app.layout_.block_width(bj);
    app.graph_.add_task(cat("FSOL(", bj, ")"),
                        {app.segment_[bj], app.lmap_[bj][bj]},
                        {app.segment_[bj]},
                        flops_trsm(1, w));
    app.task_info_.push_back(
        TaskInfo{TaskInfo::Kind::kForwardSolve, bj, bj});
    for (Index e = app.block_fill_.col_ptr[bj];
         e < app.block_fill_.col_ptr[bj + 1]; ++e) {
      const Index bi = app.block_fill_.row_idx[e];
      if (bi == bj) continue;
      app.graph_.add_task(
          cat("FUPD(", bi, ",", bj, ")"),
          {app.segment_[bi], app.segment_[bj], app.lmap_[bi][bj]},
          {app.segment_[bi]},
          flops_gemm(app.layout_.block_width(bi), 1, w),
          /*commute_group=*/app.segment_[bi]);
      app.task_info_.push_back(
          TaskInfo{TaskInfo::Kind::kForwardUpdate, bi, bj});
    }
  }
  // Backward sweep: descending columns; x_j gathers contributions from all
  // segments below through L(:,j)ᵀ, then solves the transposed diagonal.
  for (Index bj = nb - 1; bj >= 0; --bj) {
    const Index w = app.layout_.block_width(bj);
    for (Index e = app.block_fill_.col_ptr[bj];
         e < app.block_fill_.col_ptr[bj + 1]; ++e) {
      const Index bi = app.block_fill_.row_idx[e];
      if (bi == bj) continue;
      app.graph_.add_task(
          cat("BUPD(", bj, ",", bi, ")"),
          {app.segment_[bj], app.segment_[bi], app.lmap_[bi][bj]},
          {app.segment_[bj]},
          flops_gemm(w, 1, app.layout_.block_width(bi)),
          /*commute_group=*/app.segment_[bj]);
      app.task_info_.push_back(
          TaskInfo{TaskInfo::Kind::kBackwardUpdate, bi, bj});
    }
    app.graph_.add_task(cat("BSOL(", bj, ")"),
                        {app.segment_[bj], app.lmap_[bj][bj]},
                        {app.segment_[bj]},
                        flops_trsm(1, w));
    app.task_info_.push_back(
        TaskInfo{TaskInfo::Kind::kBackwardSolve, bj, bj});
  }
  app.graph_.finalize();
  return app;
}

rt::ObjectInit TriSolveApp::make_init() const {
  return [this](graph::DataId d, std::span<std::byte> buffer) {
    const Index n = layout_.n;
    auto* out = reinterpret_cast<double*>(buffer.data());
    // Solution segments start as the right-hand side.
    for (Index bi = 0; bi < layout_.num_blocks; ++bi) {
      if (segment_[bi] == d) {
        const Index r0 = layout_.block_begin(bi);
        for (Index r = 0; r < layout_.block_width(bi); ++r) {
          out[r] = rhs_[r0 + r];
        }
        return;
      }
    }
    // L blocks copy from the reference factor.
    for (Index bi = 0; bi < layout_.num_blocks; ++bi) {
      for (Index bj = 0; bj <= bi; ++bj) {
        if (lmap_[bi][bj] != d) continue;
        const Index r0 = layout_.block_begin(bi);
        const Index c0 = layout_.block_begin(bj);
        const Index h = layout_.block_width(bi);
        for (Index c = 0; c < layout_.block_width(bj); ++c) {
          for (Index r = 0; r < h; ++r) {
            out[static_cast<std::size_t>(c) * h + r] =
                l_dense_[static_cast<std::size_t>(c0 + c) * n + (r0 + r)];
          }
        }
        return;
      }
    }
    RAPID_FAIL(cat("unknown data object ", d));
  };
}

rt::TaskBody TriSolveApp::make_body() const {
  return [this](graph::TaskId t, rt::ObjectResolver& resolver) {
    const TaskInfo& info = task_info_[t];
    const Index hi = layout_.block_width(info.i);
    const Index hj = layout_.block_width(info.j);
    switch (info.kind) {
      case TaskInfo::Kind::kForwardSolve: {
        // y_j := L_jj^{-1} y_j (forward substitution, non-unit diagonal).
        auto ld = resolver.read(l_block(info.j, info.j));
        auto ys = resolver.write(segment_[info.j]);
        const auto* l = reinterpret_cast<const double*>(ld.data());
        auto* y = reinterpret_cast<double*>(ys.data());
        for (Index r = 0; r < hj; ++r) {
          double v = y[r];
          for (Index c = 0; c < r; ++c) v -= l[c * hj + r] * y[c];
          y[r] = v / l[r * hj + r];
        }
        break;
      }
      case TaskInfo::Kind::kForwardUpdate: {
        // y_i -= L_ij * y_j.
        auto ld = resolver.read(l_block(info.i, info.j));
        auto yj = resolver.read(segment_[info.j]);
        auto yi = resolver.write(segment_[info.i]);
        gemm_minus_ab(reinterpret_cast<const double*>(ld.data()), hi,
                      reinterpret_cast<const double*>(yj.data()), hj,
                      reinterpret_cast<double*>(yi.data()), hi, hi, 1, hj);
        break;
      }
      case TaskInfo::Kind::kBackwardSolve: {
        // x_j := L_jj^{-T} x_j (backward substitution).
        auto ld = resolver.read(l_block(info.j, info.j));
        auto xs = resolver.write(segment_[info.j]);
        const auto* l = reinterpret_cast<const double*>(ld.data());
        auto* x = reinterpret_cast<double*>(xs.data());
        for (Index r = hj - 1; r >= 0; --r) {
          double v = x[r];
          for (Index c = r + 1; c < hj; ++c) v -= l[r * hj + c] * x[c];
          x[r] = v / l[r * hj + r];
        }
        break;
      }
      case TaskInfo::Kind::kBackwardUpdate: {
        // x_j -= L_ijᵀ * x_i : x_j[c] -= sum_r L_ij[r,c] * x_i[r].
        auto ld = resolver.read(l_block(info.i, info.j));
        auto xi = resolver.read(segment_[info.i]);
        auto xj = resolver.write(segment_[info.j]);
        const auto* l = reinterpret_cast<const double*>(ld.data());
        const auto* vi = reinterpret_cast<const double*>(xi.data());
        auto* vj = reinterpret_cast<double*>(xj.data());
        for (Index c = 0; c < hj; ++c) {
          double acc = 0.0;
          for (Index r = 0; r < hi; ++r) acc += l[c * hi + r] * vi[r];
          vj[c] -= acc;
        }
        break;
      }
    }
  };
}

std::vector<double> TriSolveApp::extract_solution(
    const rt::ThreadedExecutor& exec) const {
  std::vector<double> x(static_cast<std::size_t>(layout_.n), 0.0);
  for (Index bi = 0; bi < layout_.num_blocks; ++bi) {
    const std::vector<std::byte> bytes = exec.read_object(segment_[bi]);
    const auto* v = reinterpret_cast<const double*>(bytes.data());
    const Index r0 = layout_.block_begin(bi);
    for (Index r = 0; r < layout_.block_width(bi); ++r) {
      x[r0 + r] = v[r];
    }
  }
  return x;
}

double TriSolveApp::solution_error(const std::vector<double>& x) {
  double worst = 0.0;
  for (double xi : x) worst = std::max(worst, std::abs(xi - 1.0));
  return worst;
}

double TriSolveApp::residual(const rt::ThreadedExecutor& exec) const {
  return solution_error(extract_solution(exec));
}

}  // namespace rapid::num
