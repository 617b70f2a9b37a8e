#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "rapid/support/rng.hpp"

namespace perfbench {

using rapid::sparse::Index;

namespace {

std::vector<double> probe_vector(Index n) {
  rapid::Rng rng(0x5eed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.next_double(-1.0, 1.0);
  return x;
}

double relative(const std::vector<double>& want, const std::vector<double>& got,
                const rapid::sparse::CscMatrix& a, const std::vector<double>& x) {
  double num = 0.0;
  double xx = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double d = want[i] - got[i];
    num += d * d;
    xx += x[i] * x[i];
  }
  const double den = a.frobenius_norm() * std::sqrt(xx);
  const double r = std::sqrt(num) / std::max(den, 1e-300);
  return std::isfinite(r) ? r : 1e300;
}

const double* as_doubles(const std::vector<std::byte>& bytes) {
  return reinterpret_cast<const double*>(bytes.data());
}

}  // namespace

Factor read_factor(const rapid::graph::TaskGraph& graph,
                   const rapid::rt::ThreadedExecutor& exec) {
  Factor f(static_cast<std::size_t>(graph.num_data()));
  for (rapid::graph::DataId d = 0; d < graph.num_data(); ++d) {
    f[static_cast<std::size_t>(d)] = exec.read_object(d);
  }
  return f;
}

double cholesky_residual(const rapid::num::CholeskyApp& app, const Factor& f) {
  const rapid::sparse::CscMatrix& a = app.matrix();
  const rapid::sparse::BlockLayout& layout = app.layout();
  const Index n = a.n_cols();
  const std::vector<double> x = probe_vector(n);
  const std::vector<double> ax = a.multiply(x);
  // Present lower blocks (bi >= bj), each stored column-major h x w with
  // only its lower-triangle entries meaningful.
  std::vector<std::pair<Index, Index>> blocks;
  for (Index bj = 0; bj < layout.num_blocks; ++bj) {
    for (Index bi = bj; bi < layout.num_blocks; ++bi) {
      if (app.block_object(bi, bj) != rapid::graph::kInvalidData) {
        blocks.emplace_back(bi, bj);
      }
    }
  }
  auto sweep = [&](bool transpose, const std::vector<double>& in,
                   std::vector<double>& out) {
    for (const auto& [bi, bj] : blocks) {
      const double* v =
          as_doubles(f[static_cast<std::size_t>(app.block_object(bi, bj))]);
      const Index r0 = layout.block_begin(bi), c0 = layout.block_begin(bj);
      const Index h = layout.block_width(bi), w = layout.block_width(bj);
      for (Index c = 0; c < w; ++c) {
        for (Index r = 0; r < h; ++r) {
          const Index gr = r0 + r, gc = c0 + c;
          if (gr < gc) continue;
          const double l = v[static_cast<std::size_t>(c) * h + r];
          if (transpose) {
            out[gc] += l * in[gr];
          } else {
            out[gr] += l * in[gc];
          }
        }
      }
    }
  };
  std::vector<double> z(static_cast<std::size_t>(n), 0.0);
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  sweep(/*transpose=*/true, x, z);
  sweep(/*transpose=*/false, z, y);
  return relative(ax, y, a, x);
}

double lu_residual(const rapid::num::LuApp& app, const Factor& f) {
  const rapid::sparse::CscMatrix& a = app.matrix();
  const rapid::sparse::BlockLayout& layout = app.layout();
  const Index n = a.n_cols();
  const Index nb = layout.num_blocks;
  const std::vector<double> x = probe_vector(n);

  // Column block k holds rows [row_lo(k), n) of its columns, column-major,
  // followed by one panel-local pivot per column.
  std::vector<Index> piv(static_cast<std::size_t>(n));
  for (Index k = 0; k < nb; ++k) {
    const double* v = as_doubles(f[static_cast<std::size_t>(app.block_object(k))]);
    const std::int64_t m = n - app.row_lo(k);
    const Index w = layout.block_width(k), c0 = layout.block_begin(k);
    for (Index c = 0; c < w; ++c) {
      piv[c0 + c] = static_cast<Index>(v[m * w + c]) + c0;
    }
  }
  auto swap_panel = [&](Index k, std::vector<double>& vec) {
    for (Index c = layout.block_begin(k); c < layout.block_end(k); ++c) {
      std::swap(vec[c], vec[piv[c]]);
    }
  };

  // want = P A x, applying the pivots in factorization order.
  std::vector<double> want = a.multiply(x);
  for (Index k = 0; k < nb; ++k) swap_panel(k, want);

  // z = U x: stored entries on or above the diagonal are final.
  std::vector<double> z(static_cast<std::size_t>(n), 0.0);
  for (Index k = 0; k < nb; ++k) {
    const double* v = as_doubles(f[static_cast<std::size_t>(app.block_object(k))]);
    const Index lo = app.row_lo(k);
    const std::int64_t m = n - lo;
    for (Index c = layout.block_begin(k); c < layout.block_end(k); ++c) {
      const double* col = v + static_cast<std::int64_t>(c - layout.block_begin(k)) * m;
      for (Index r = lo; r <= c; ++r) z[r] += col[r - lo] * x[c];
    }
  }
  // y = L z. Panel k's L columns are stored in the row order left by the
  // pivots of panels <= k; the later panels' interchanges are applied by
  // Horner's rule: acc = S_k(acc) + L_k z_k, for k = 0 .. nb-1.
  std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
  for (Index k = 0; k < nb; ++k) {
    swap_panel(k, acc);
    const double* v = as_doubles(f[static_cast<std::size_t>(app.block_object(k))]);
    const Index lo = app.row_lo(k);
    const std::int64_t m = n - lo;
    for (Index c = layout.block_begin(k); c < layout.block_end(k); ++c) {
      const double* col = v + static_cast<std::int64_t>(c - layout.block_begin(k)) * m;
      acc[c] += z[c];  // unit diagonal
      for (Index r = c + 1; r < n; ++r) acc[r] += col[r - lo] * z[c];
    }
  }
  return relative(want, acc, a, x);
}

std::string oracle_mismatch(const rapid::rt::RunReport& run,
                            const rapid::rt::RunReport& oracle) {
  std::ostringstream out;
  auto cmp = [&](const char* what, auto got, auto want) {
    if (out.tellp() == 0 && got != want) {
      out << what << " differs from the simulator";
    }
  };
  cmp("tasks", run.tasks_executed, oracle.tasks_executed);
  cmp("content_messages", run.content_messages, oracle.content_messages);
  cmp("content_bytes", run.content_bytes, oracle.content_bytes);
  cmp("maps_per_proc", run.maps_per_proc, oracle.maps_per_proc);
  cmp("peak_bytes_per_proc", run.peak_bytes_per_proc,
      oracle.peak_bytes_per_proc);
  return out.str();
}

}  // namespace perfbench
