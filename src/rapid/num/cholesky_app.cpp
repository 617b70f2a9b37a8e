#include "rapid/num/cholesky_app.hpp"

#include <cmath>
#include <cstring>

#include "rapid/num/kernels.hpp"
#include "rapid/num/reference.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::num {

namespace {

std::int64_t block_key(Index bi, Index bj) {
  return (static_cast<std::int64_t>(bi) << 32) | static_cast<std::uint32_t>(bj);
}

/// Near-square processor grid: pr * pc == p with pr the largest divisor of
/// p that is <= sqrt(p).
std::pair<int, int> processor_grid(int p) {
  int pr = 1;
  for (int d = 1; d * d <= p; ++d) {
    if (p % d == 0) pr = d;
  }
  return {pr, p / pr};
}

}  // namespace

CholeskyApp CholeskyApp::build(sparse::CscMatrix a, Index block_size,
                               int num_procs) {
  RAPID_CHECK(a.n_rows() == a.n_cols(), "Cholesky needs a square matrix");
  RAPID_CHECK(num_procs > 0, "num_procs must be positive");
  CholeskyApp app;
  app.a_ = std::move(a);
  const Index n = app.a_.n_cols();
  app.layout_ = sparse::BlockLayout(n, block_size);
  const Index nb = app.layout_.num_blocks;

  const sparse::SymbolicFactor symbolic =
      sparse::symbolic_cholesky(app.a_.pattern);
  app.block_fill_ =
      sparse::project_to_blocks(symbolic.l_pattern, app.layout_, app.layout_);

  const auto [pr, pc] = processor_grid(num_procs);

  // Data objects: one per present lower-triangular block of the factor.
  for (Index bj = 0; bj < nb; ++bj) {
    for (Index k = app.block_fill_.col_ptr[bj];
         k < app.block_fill_.col_ptr[bj + 1]; ++k) {
      const Index bi = app.block_fill_.row_idx[k];
      RAPID_CHECK(bi >= bj, "factor block pattern must be lower triangular");
      const std::int64_t bytes =
          static_cast<std::int64_t>(app.layout_.block_width(bi)) *
          app.layout_.block_width(bj) * static_cast<std::int64_t>(sizeof(double));
      const graph::ProcId owner =
          static_cast<graph::ProcId>((bi % pr) * pc + (bj % pc));
      const graph::DataId d = app.graph_.add_data(
          cat("A[", bi, ",", bj, "]"), bytes, owner);
      app.object_of_block_.emplace(block_key(bi, bj), d);
      RAPID_CHECK(d == static_cast<graph::DataId>(app.block_of_object_.size()),
                  "object ids must be dense");
      app.block_of_object_.emplace_back(bi, bj);
    }
  }

  // Tasks in elimination order. Update tasks accumulating into the same
  // target block share a commute group (= the target's object id).
  auto obj = [&app](Index bi, Index bj) {
    const auto it = app.object_of_block_.find(block_key(bi, bj));
    return it == app.object_of_block_.end() ? graph::kInvalidData
                                            : it->second;
  };
  for (Index k = 0; k < nb; ++k) {
    const Index bk = app.layout_.block_width(k);
    const graph::DataId dkk = obj(k, k);
    RAPID_CHECK(dkk != graph::kInvalidData, "missing diagonal block");
    app.graph_.add_task(cat("POTRF(", k, ")"), {dkk}, {dkk},
                        flops_potrf(bk));
    app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kPotrf, k, k, k});
    // Present sub-diagonal blocks of column k.
    std::vector<Index> below;
    for (Index e = app.block_fill_.col_ptr[k];
         e < app.block_fill_.col_ptr[k + 1]; ++e) {
      const Index bi = app.block_fill_.row_idx[e];
      if (bi > k) below.push_back(bi);
    }
    for (Index bi : below) {
      app.graph_.add_task(cat("TRSM(", bi, ",", k, ")"),
                          {dkk, obj(bi, k)}, {obj(bi, k)},
                          flops_trsm(app.layout_.block_width(bi), bk));
      app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kTrsm, bi, k, k});
    }
    // Updates: target (i, j) with i >= j, both column-k blocks present.
    for (std::size_t x = 0; x < below.size(); ++x) {
      for (std::size_t y = x; y < below.size(); ++y) {
        const Index bj = below[x];
        const Index bi = below[y];
        const graph::DataId target = obj(bi, bj);
        if (target == graph::kInvalidData) continue;  // structurally zero
        std::vector<graph::DataId> reads = {obj(bi, k), obj(bj, k), target};
        app.graph_.add_task(
            cat("UPD(", bi, ",", bj, ",", k, ")"), std::move(reads), {target},
            flops_gemm(app.layout_.block_width(bi),
                       app.layout_.block_width(bj), bk),
            /*commute_group=*/target);
        app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kUpdate, bi, bj, k});
      }
    }
  }
  app.graph_.finalize();
  return app;
}

graph::DataId CholeskyApp::block_object(Index bi, Index bj) const {
  const auto it = object_of_block_.find(block_key(bi, bj));
  return it == object_of_block_.end() ? graph::kInvalidData : it->second;
}

rt::ObjectInit CholeskyApp::make_init() const {
  return [this](graph::DataId d, std::span<std::byte> buffer) {
    // Block content = A's scalar values in the block's range, zero fill
    // elsewhere (dense storage keeps structurally-zero positions exact).
    const auto [bi, bj] = block_of_object_.at(static_cast<std::size_t>(d));
    const Index r0 = layout_.block_begin(bi);
    const Index c0 = layout_.block_begin(bj);
    const Index h = layout_.block_width(bi);
    const Index w = layout_.block_width(bj);
    auto* values = reinterpret_cast<double*>(buffer.data());
    std::memset(buffer.data(), 0, buffer.size());
    for (Index c = c0; c < c0 + w; ++c) {
      for (Index e = a_.pattern.col_ptr[c]; e < a_.pattern.col_ptr[c + 1];
           ++e) {
        const Index r = a_.pattern.row_idx[e];
        if (r >= r0 && r < r0 + h) {
          values[static_cast<std::size_t>(c - c0) * h + (r - r0)] =
              a_.values[e];
        }
      }
    }
  };
}

rt::TaskBody CholeskyApp::make_body() const {
  return [this](graph::TaskId t, rt::ObjectResolver& resolver) {
    const TaskInfo& info = task_info_[t];
    const Index hi = layout_.block_width(info.i);
    const Index hj = layout_.block_width(info.j);
    const Index hk = layout_.block_width(info.k);
    switch (info.kind) {
      case TaskInfo::Kind::kPotrf: {
        auto span = resolver.write(block_object(info.k, info.k));
        potrf_lower(reinterpret_cast<double*>(span.data()), hk, hk);
        break;
      }
      case TaskInfo::Kind::kTrsm: {
        auto lkk = resolver.read(block_object(info.k, info.k));
        auto aik = resolver.write(block_object(info.i, info.k));
        trsm_right_lower_transpose(
            reinterpret_cast<const double*>(lkk.data()), hk,
            reinterpret_cast<double*>(aik.data()), hi, hi, hk);
        break;
      }
      case TaskInfo::Kind::kUpdate: {
        auto lik = resolver.read(block_object(info.i, info.k));
        auto ljk = resolver.read(block_object(info.j, info.k));
        auto aij = resolver.write(block_object(info.i, info.j));
        gemm_minus_abt(reinterpret_cast<const double*>(lik.data()), hi,
                       reinterpret_cast<const double*>(ljk.data()), hj,
                       reinterpret_cast<double*>(aij.data()), hi, hi, hj, hk);
        break;
      }
    }
  };
}

std::vector<double> CholeskyApp::extract_l_dense(
    const rt::ThreadedExecutor& exec) const {
  const Index n = a_.n_cols();
  std::vector<double> l(static_cast<std::size_t>(n) * n, 0.0);
  for (const auto& [key, d] : object_of_block_) {
    const Index bi = static_cast<Index>(key >> 32);
    const Index bj = static_cast<Index>(key & 0xffffffff);
    const Index r0 = layout_.block_begin(bi);
    const Index c0 = layout_.block_begin(bj);
    const Index h = layout_.block_width(bi);
    const Index w = layout_.block_width(bj);
    const std::vector<std::byte> content = exec.read_object(d);
    const auto* values = reinterpret_cast<const double*>(content.data());
    for (Index c = 0; c < w; ++c) {
      for (Index r = 0; r < h; ++r) {
        const Index gr = r0 + r;
        const Index gc = c0 + c;
        if (gr < gc) continue;  // keep the lower triangle only
        l[static_cast<std::size_t>(gc) * n + gr] =
            values[static_cast<std::size_t>(c) * h + r];
      }
    }
  }
  return l;
}

double CholeskyApp::residual(const rt::ThreadedExecutor& exec) const {
  return cholesky_residual(a_, extract_l_dense(exec));
}

}  // namespace rapid::num
