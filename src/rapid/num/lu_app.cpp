#include "rapid/num/lu_app.hpp"

#include <algorithm>
#include <cstring>

#include "rapid/num/kernels.hpp"
#include "rapid/num/reference.hpp"
#include "rapid/sparse/symbolic.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::num {

std::int64_t LuApp::stored_rows(Index block) const {
  return static_cast<std::int64_t>(layout_.n - row_lo_[block]);
}

LuApp LuApp::build(sparse::CscMatrix a, Index block_size, int num_procs) {
  RAPID_CHECK(a.n_rows() == a.n_cols(), "LU needs a square matrix");
  RAPID_CHECK(num_procs > 0, "num_procs must be positive");
  LuApp app;
  app.a_ = std::move(a);
  const Index n = app.a_.n_cols();
  app.layout_ = sparse::BlockLayout(n, block_size);
  const Index nb = app.layout_.num_blocks;

  // Row-merge static symbolic bound: covers struct(L + U) of PA = LU for
  // every partial-pivoting sequence (see symbolic_lu_bound_pivoting).
  const sparse::CscPattern full_bound =
      sparse::symbolic_lu_bound_pivoting(app.a_.pattern);

  // Row span per column block from the bound pattern.
  app.row_lo_.assign(static_cast<std::size_t>(nb), n);
  for (Index j = 0; j < n; ++j) {
    const Index bj = app.layout_.block_of(j);
    if (full_bound.col_ptr[j] < full_bound.col_ptr[j + 1]) {
      app.row_lo_[bj] = std::min(app.row_lo_[bj],
                                 full_bound.row_idx[full_bound.col_ptr[j]]);
    }
    app.row_lo_[bj] = std::min(app.row_lo_[bj], j);  // diagonal always stored
  }

  // Structural coupling: Update(k, j) exists iff the bound has an entry in
  // panel-k rows of block-j columns (a U block). The AᵀA closure guarantees
  // every value partial pivoting can move stays inside this structure.
  const sparse::CscPattern block_bound =
      sparse::project_to_blocks(full_bound, app.layout_, app.layout_);
  std::vector<std::vector<Index>> coupled_sources(
      static_cast<std::size_t>(nb));
  for (Index bj = 0; bj < nb; ++bj) {
    for (Index e = block_bound.col_ptr[bj]; e < block_bound.col_ptr[bj + 1];
         ++e) {
      const Index bk = block_bound.row_idx[e];
      if (bk < bj) coupled_sources[bj].push_back(bk);
    }
  }
  // Widen storage so every coupled panel's row swaps stay in range.
  for (Index bj = 0; bj < nb; ++bj) {
    for (Index bk : coupled_sources[bj]) {
      app.row_lo_[bj] =
          std::min(app.row_lo_[bj], app.layout_.block_begin(bk));
    }
  }

  // Data objects: dense rows [row_lo, n) × width, plus pivot slots.
  app.objects_.resize(static_cast<std::size_t>(nb));
  for (Index bk = 0; bk < nb; ++bk) {
    const Index w = app.layout_.block_width(bk);
    const std::int64_t bytes =
        (app.stored_rows(bk) * w + w) * static_cast<std::int64_t>(sizeof(double));
    app.objects_[bk] = app.graph_.add_data(
        cat("C[", bk, "]"), bytes,
        static_cast<graph::ProcId>(bk % num_procs));
  }

  // Tasks: for each panel k, Factor(k) then Update(k, j) for coupled j > k.
  // Emission order makes the inspector derive the exact chains the paper's
  // LU graphs have: ... Update(k-1, j), Update(k, j), ..., Factor(j).
  std::vector<std::vector<Index>> coupled_targets(
      static_cast<std::size_t>(nb));
  for (Index bj = 0; bj < nb; ++bj) {
    for (Index bk : coupled_sources[bj]) coupled_targets[bk].push_back(bj);
  }
  for (Index bk = 0; bk < nb; ++bk) {
    const Index w = app.layout_.block_width(bk);
    const Index ck0 = app.layout_.block_begin(bk);
    app.graph_.add_task(cat("FACT(", bk, ")"), {app.objects_[bk]},
                        {app.objects_[bk]},
                        flops_getrf_panel(n - ck0, w));
    app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kFactor, bk, bk});
    for (Index bj : coupled_targets[bk]) {
      const Index wj = app.layout_.block_width(bj);
      const double flops =
          static_cast<double>(w) * w * wj +  // unit-lower solve, w×wj
          flops_gemm(n - app.layout_.block_end(bk), wj, w);
      app.graph_.add_task(cat("UPD(", bk, "->", bj, ")"),
                          {app.objects_[bk], app.objects_[bj]},
                          {app.objects_[bj]}, flops);
      app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kUpdate, bk, bj});
    }
  }
  app.graph_.finalize();
  return app;
}

void LuApp::update_values(const sparse::CscMatrix& matrix) {
  RAPID_CHECK(matrix.pattern == a_.pattern,
              "update_values requires the build-time sparsity pattern");
  a_.values = matrix.values;
}

rt::ObjectInit LuApp::make_init() const {
  return [this](graph::DataId d, std::span<std::byte> buffer) {
    const Index bk = static_cast<Index>(
        std::find(objects_.begin(), objects_.end(), d) - objects_.begin());
    RAPID_CHECK(bk < layout_.num_blocks, cat("unknown LU object ", d));
    const Index lo = row_lo_[bk];
    const Index c0 = layout_.block_begin(bk);
    const Index w = layout_.block_width(bk);
    const std::int64_t m = stored_rows(bk);
    auto* values = reinterpret_cast<double*>(buffer.data());
    std::memset(buffer.data(), 0, buffer.size());
    for (Index c = c0; c < c0 + w; ++c) {
      for (Index e = a_.pattern.col_ptr[c]; e < a_.pattern.col_ptr[c + 1];
           ++e) {
        const Index r = a_.pattern.row_idx[e];
        RAPID_CHECK(r >= lo, "matrix entry below the static bound's row span");
        values[static_cast<std::int64_t>(c - c0) * m + (r - lo)] =
            a_.values[e];
      }
    }
  };
}

rt::TaskBody LuApp::make_body() const {
  return [this](graph::TaskId t, rt::ObjectResolver& resolver) {
    const TaskInfo& info = task_info_[t];
    const Index n = layout_.n;
    if (info.kind == TaskInfo::Kind::kFactor) {
      const Index bk = info.k;
      const Index w = layout_.block_width(bk);
      const Index ck0 = layout_.block_begin(bk);
      const Index lo = row_lo_[bk];
      const std::int64_t m = stored_rows(bk);
      auto span = resolver.write(objects_[bk]);
      auto* values = reinterpret_cast<double*>(span.data());
      // Panel = rows [ck0, n) of the stored range.
      std::vector<std::int32_t> piv(static_cast<std::size_t>(w));
      getrf_panel(values + (ck0 - lo), m, n - ck0, w, piv.data());
      // Pivots ride with the object (needed by remote Update tasks).
      double* piv_slot = values + m * w;
      for (Index c = 0; c < w; ++c) {
        piv_slot[c] = static_cast<double>(piv[c]);
      }
      return;
    }
    // Update(k, j).
    const Index bk = info.k;
    const Index bj = info.j;
    const Index wk = layout_.block_width(bk);
    const Index wj = layout_.block_width(bj);
    const Index ck0 = layout_.block_begin(bk);
    const Index ck1 = layout_.block_end(bk);
    const Index lok = row_lo_[bk];
    const Index loj = row_lo_[bj];
    RAPID_CHECK(loj <= ck0, "coupled block does not cover the panel rows");
    const std::int64_t mk = stored_rows(bk);
    const std::int64_t mj = stored_rows(bj);
    auto ksp = resolver.read(objects_[bk]);
    auto jsp = resolver.write(objects_[bj]);
    const auto* kval = reinterpret_cast<const double*>(ksp.data());
    auto* jval = reinterpret_cast<double*>(jsp.data());
    // 1. Apply panel-k pivots to block j (panel-local pivot row p means
    // global rows ck0+c <-> ck0+p).
    std::vector<std::int32_t> piv(static_cast<std::size_t>(wk));
    const double* piv_slot = kval + mk * wk;
    for (Index c = 0; c < wk; ++c) {
      piv[c] = static_cast<std::int32_t>(piv_slot[c]);
    }
    apply_pivots(jval, mj, wj, /*row_offset=*/ck0 - loj, piv);
    // 2. U block: solve L_kk (unit lower, w×w) against rows [ck0, ck1).
    trsm_left_unit_lower(kval + (ck0 - lok), mk, jval + (ck0 - loj), mj, wk,
                         wj);
    // 3. Trailing GEMM: rows [ck1, n) -= L(below, k) * U(panel, j).
    const std::int64_t below = n - ck1;
    if (below > 0) {
      gemm_minus_ab(kval + (ck1 - lok), mk, jval + (ck0 - loj), mj,
                    jval + (ck1 - loj), mj, below, wj, wk);
    }
  };
}

LuApp::Extracted LuApp::extract(const rt::ThreadedExecutor& exec) const {
  const Index n = layout_.n;
  Extracted out;
  out.lu.assign(static_cast<std::size_t>(n) * n, 0.0);
  out.piv.assign(static_cast<std::size_t>(n), 0);
  for (Index bk = 0; bk < layout_.num_blocks; ++bk) {
    const Index lo = row_lo_[bk];
    const Index c0 = layout_.block_begin(bk);
    const Index w = layout_.block_width(bk);
    const std::int64_t m = stored_rows(bk);
    const std::vector<std::byte> content = exec.read_object(objects_[bk]);
    const auto* values = reinterpret_cast<const double*>(content.data());
    for (Index c = 0; c < w; ++c) {
      for (std::int64_t r = 0; r < m; ++r) {
        out.lu[static_cast<std::size_t>(c0 + c) * n + (lo + r)] =
            values[static_cast<std::int64_t>(c) * m + r];
      }
      // Panel-local pivot -> global row index.
      out.piv[c0 + c] =
          static_cast<std::int32_t>(values[m * w + c]) + c0;
    }
  }
  // The run time never writes to finalized blocks, so columns left of a
  // panel missed that panel's row interchanges (LAPACK's laswp on the
  // trailing panels' left columns). Apply them now, panel by panel, to
  // obtain the standard packed LU of P·A.
  for (Index bk = 0; bk < layout_.num_blocks; ++bk) {
    const Index c0 = layout_.block_begin(bk);
    const Index c1 = layout_.block_end(bk);
    for (Index c = c0; c < c1; ++c) {
      const Index r = out.piv[c];
      if (r == c) continue;
      for (Index left = 0; left < c0; ++left) {
        std::swap(out.lu[static_cast<std::size_t>(left) * n + c],
                  out.lu[static_cast<std::size_t>(left) * n + r]);
      }
    }
  }
  return out;
}

double LuApp::residual(const rt::ThreadedExecutor& exec) const {
  const Extracted x = extract(exec);
  return lu_residual(a_, x.lu, x.piv);
}

}  // namespace rapid::num
