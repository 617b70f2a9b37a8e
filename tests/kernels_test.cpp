#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "rapid/num/dispatch.hpp"
#include "rapid/num/kernels.hpp"
#include "rapid/num/reference.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/rng.hpp"

namespace rapid::num {
namespace {

/// Forces a kernel dispatch level for one test scope; restores kAuto.
struct LevelGuard {
  explicit LevelGuard(KernelLevel level) { set_kernel_level(level); }
  ~LevelGuard() { set_kernel_level(KernelLevel::kAuto); }
};

std::vector<double> random_spd(std::int64_t n, Rng& rng) {
  // A = B * B^T + n * I, column-major.
  std::vector<double> b(static_cast<std::size_t>(n * n));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t k = 0; k < n; ++k) {
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t i = 0; i < n; ++i) {
        a[j * n + i] += b[k * n + i] * b[k * n + j];
      }
    }
  }
  for (std::int64_t i = 0; i < n; ++i) a[i * n + i] += n;
  return a;
}

TEST(Potrf, ReconstructsSpdMatrix) {
  Rng rng(1);
  const std::int64_t n = 12;
  const std::vector<double> a = random_spd(n, rng);
  std::vector<double> l = a;
  potrf_lower(l.data(), n, n);
  // Zero upper, compute L L^T, compare.
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < j; ++i) l[j * n + i] = 0.0;
  }
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = j; i < n; ++i) {
      double dot = 0.0;
      for (std::int64_t k = 0; k < n; ++k) {
        dot += l[k * n + i] * l[k * n + j];
      }
      EXPECT_NEAR(dot, a[j * n + i], 1e-9);
    }
  }
}

TEST(Potrf, RejectsIndefiniteMatrix) {
  std::vector<double> a = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_THROW(potrf_lower(a.data(), 2, 2), Error);
}

TEST(TrsmRightLowerTranspose, SolvesAgainstReference) {
  Rng rng(2);
  const std::int64_t n = 8, m = 5;
  std::vector<double> l = random_spd(n, rng);
  potrf_lower(l.data(), n, n);
  std::vector<double> x_true(static_cast<std::size_t>(m * n));
  for (auto& v : x_true) v = rng.next_double(-2.0, 2.0);
  // B = X * L^T.
  std::vector<double> b(static_cast<std::size_t>(m * n), 0.0);
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t k = 0; k <= j; ++k) {
      const double ljk = l[k * n + j];
      for (std::int64_t i = 0; i < m; ++i) {
        b[j * m + i] += x_true[k * m + i] * ljk;
      }
    }
  }
  trsm_right_lower_transpose(l.data(), n, b.data(), m, m, n);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(b[i], x_true[i], 1e-9);
  }
}

TEST(TrsmLeftUnitLower, SolvesAgainstReference) {
  Rng rng(3);
  const std::int64_t m = 7, n = 4;
  std::vector<double> l(static_cast<std::size_t>(m * m), 0.0);
  for (std::int64_t j = 0; j < m; ++j) {
    l[j * m + j] = 1.0;
    for (std::int64_t i = j + 1; i < m; ++i) {
      l[j * m + i] = rng.next_double(-1.0, 1.0);
    }
  }
  std::vector<double> x_true(static_cast<std::size_t>(m * n));
  for (auto& v : x_true) v = rng.next_double(-2.0, 2.0);
  // B = L * X (unit lower).
  std::vector<double> b(static_cast<std::size_t>(m * n), 0.0);
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t k = 0; k < m; ++k) {
      const double xkj = x_true[j * m + k];
      b[j * m + k] += xkj;
      for (std::int64_t i = k + 1; i < m; ++i) {
        b[j * m + i] += l[k * m + i] * xkj;
      }
    }
  }
  trsm_left_unit_lower(l.data(), m, b.data(), m, m, n);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(b[i], x_true[i], 1e-9);
  }
}

TEST(Gemm, MinusAbtMatchesNaive) {
  Rng rng(4);
  const std::int64_t m = 6, n = 5, k = 7;
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(n * k));
  std::vector<double> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = rng.next_double(-1, 1);
  for (auto& v : b) v = rng.next_double(-1, 1);
  for (auto& v : c) v = rng.next_double(-1, 1);
  std::vector<double> expected = c;
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        expected[j * m + i] -= a[kk * m + i] * b[kk * n + j];
      }
    }
  }
  gemm_minus_abt(a.data(), m, b.data(), n, c.data(), m, m, n, k);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-12);
  }
}

TEST(Gemm, MinusAbMatchesNaive) {
  Rng rng(5);
  const std::int64_t m = 4, n = 6, k = 3;
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  std::vector<double> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = rng.next_double(-1, 1);
  for (auto& v : b) v = rng.next_double(-1, 1);
  for (auto& v : c) v = rng.next_double(-1, 1);
  std::vector<double> expected = c;
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        expected[j * m + i] -= a[kk * m + i] * b[j * k + kk];
      }
    }
  }
  gemm_minus_ab(a.data(), m, b.data(), k, c.data(), m, m, n, k);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-12);
  }
}

TEST(GetrfPanel, FactorsWithPivoting) {
  Rng rng(6);
  const std::int64_t m = 9, w = 4;
  std::vector<double> a(static_cast<std::size_t>(m * w));
  for (auto& v : a) v = rng.next_double(-1, 1);
  const std::vector<double> original = a;
  std::vector<std::int32_t> piv(static_cast<std::size_t>(w));
  getrf_panel(a.data(), m, m, w, piv.data());
  // Pivots are in range and the magnitudes of L are <= 1 (partial
  // pivoting's defining property).
  for (std::int64_t j = 0; j < w; ++j) {
    EXPECT_GE(piv[j], j);
    EXPECT_LT(piv[j], m);
    for (std::int64_t i = j + 1; i < m; ++i) {
      EXPECT_LE(std::abs(a[j * m + i]), 1.0 + 1e-12);
    }
  }
  // Reconstruct: P * original == L * U.
  std::vector<double> pa = original;
  for (std::int64_t j = 0; j < w; ++j) {
    if (piv[j] != j) {
      for (std::int64_t c = 0; c < w; ++c) {
        std::swap(pa[c * m + j], pa[c * m + piv[j]]);
      }
    }
  }
  for (std::int64_t j = 0; j < w; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      double dot = 0.0;
      for (std::int64_t k = 0; k <= std::min<std::int64_t>(j, w - 1); ++k) {
        const double lik = (i == k) ? 1.0 : (i > k ? a[k * m + i] : 0.0);
        const double ukj = (k <= j) ? a[j * m + k] : 0.0;
        dot += lik * ukj;
      }
      EXPECT_NEAR(dot, pa[j * m + i], 1e-9) << i << "," << j;
    }
  }
}

TEST(GetrfPanel, SingularColumnThrows) {
  std::vector<double> a = {0.0, 0.0, 0.0, 1.0};  // first column all zero
  std::vector<std::int32_t> piv(2);
  EXPECT_THROW(getrf_panel(a.data(), 2, 2, 2, piv.data()), Error);
}

TEST(ApplyPivots, MatchesManualSwaps) {
  std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8};  // 4x2 column-major
  const std::vector<std::int32_t> piv = {2, 3};
  apply_pivots(a.data(), 4, 2, /*row_offset=*/0, piv);
  // Step 0: swap rows 0,2 -> col0: 3,2,1,4; col1: 7,6,5,8.
  // Step 1: swap rows 1,3 -> col0: 3,4,1,2; col1: 7,8,5,6.
  EXPECT_EQ(a, (std::vector<double>{3, 4, 1, 2, 7, 8, 5, 6}));
}

TEST(DenseLu, ResidualIsTiny) {
  Rng rng(7);
  const sparse::CscMatrix a = sparse::random_banded(30, 6, 0.7, rng);
  const DenseLu lu = dense_lu(a.to_dense(), 30);
  EXPECT_LT(lu_residual(a, lu.lu, lu.piv), 1e-12);
}

TEST(DenseLu, SolveRecoversUnitSolution) {
  Rng rng(8);
  const sparse::CscMatrix a = sparse::random_banded(25, 5, 0.8, rng);
  const DenseLu lu = dense_lu(a.to_dense(), 25);
  const auto x = lu_solve(lu.lu, lu.piv, 25, sparse::rhs_for_unit_solution(a));
  std::vector<double> ones(25, 1.0);
  EXPECT_LT(max_rel_error(x, ones), 1e-10);
}

TEST(DenseCholesky, ResidualAndSolve) {
  const sparse::CscMatrix a = sparse::grid_laplacian_2d(5, 5);
  const auto l = dense_cholesky(a.to_dense(), 25);
  EXPECT_LT(cholesky_residual(a, l), 1e-13);
  const auto x = cholesky_solve(l, 25, sparse::rhs_for_unit_solution(a));
  std::vector<double> ones(25, 1.0);
  EXPECT_LT(max_rel_error(x, ones), 1e-11);
}

// ---- blocked-kernel property tests (dispatch.hpp) ------------------------
//
// The blocked microkernels reassociate sums, so "equality" with the scalar
// reference is ULP-bounded: |blocked - ref| <= tol * (k + 1) * (1 + |ref|)
// with tol a small multiple of machine epsilon. gemm/trsm are compared
// elementwise; potrf/getrf pivoting and summation order differ enough that
// the meaningful contract is the factorization residual at both levels.

constexpr double kUlp = 16.0 * 2.220446049250313e-16;  // 16 * DBL_EPSILON

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, std::int64_t depth,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size());
  const double tol = kUlp * static_cast<double>(depth + 1);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol * (1.0 + std::abs(want[i])))
        << what << " diverged at flat index " << i;
  }
}

std::vector<double> random_matrix(std::int64_t ld, std::int64_t cols,
                                  Rng& rng, bool zero = false) {
  std::vector<double> m(static_cast<std::size_t>(ld * cols));
  if (!zero) {
    for (auto& v : m) v = rng.next_double(-1.0, 1.0);
  }
  return m;
}

TEST(KernelDispatch, GemmMinusAbtBlockedMatchesRefRandomized) {
  Rng rng(41);
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.next_below(70));
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(40));
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng.next_below(50));
    // Leading dimensions strictly larger than the live block on some trials
    // (ld > rows), so strided panels and edge tiles are exercised.
    const std::int64_t lda = m + static_cast<std::int64_t>(rng.next_below(9));
    const std::int64_t ldb = n + static_cast<std::int64_t>(rng.next_below(9));
    const std::int64_t ldc = m + static_cast<std::int64_t>(rng.next_below(9));
    const bool zero_a = trial % 17 == 0;  // zero blocks stay exact
    const auto a = random_matrix(lda, k, rng, zero_a);
    const auto b = random_matrix(ldb, k, rng);
    const auto c0 = random_matrix(ldc, n, rng);
    std::vector<double> want = c0, got = c0;
    gemm_minus_abt_ref(a.data(), lda, b.data(), ldb, want.data(), ldc, m, n,
                       k);
    {
      LevelGuard guard(KernelLevel::kBlocked);
      gemm_minus_abt(a.data(), lda, b.data(), ldb, got.data(), ldc, m, n, k);
    }
    expect_close(got, want, k, "gemm_minus_abt");
  }
}

TEST(KernelDispatch, GemmMinusAbBlockedMatchesRefRandomized) {
  Rng rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.next_below(70));
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(40));
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng.next_below(50));
    const std::int64_t lda = m + static_cast<std::int64_t>(rng.next_below(9));
    const std::int64_t ldb = k + static_cast<std::int64_t>(rng.next_below(9));
    const std::int64_t ldc = m + static_cast<std::int64_t>(rng.next_below(9));
    const bool zero_b = trial % 19 == 0;
    const auto a = random_matrix(lda, k, rng);
    const auto b = random_matrix(ldb, n, rng, zero_b);
    const auto c0 = random_matrix(ldc, n, rng);
    std::vector<double> want = c0, got = c0;
    gemm_minus_ab_ref(a.data(), lda, b.data(), ldb, want.data(), ldc, m, n,
                      k);
    {
      LevelGuard guard(KernelLevel::kBlocked);
      gemm_minus_ab(a.data(), lda, b.data(), ldb, got.data(), ldc, m, n, k);
    }
    expect_close(got, want, k, "gemm_minus_ab");
  }
}

TEST(KernelDispatch, TrsmRightBlockedMatchesRefRandomized) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t n = 65 + static_cast<std::int64_t>(rng.next_below(40));
    const std::int64_t m = 8 + static_cast<std::int64_t>(rng.next_below(24));
    const std::int64_t ldl = n + static_cast<std::int64_t>(rng.next_below(5));
    const std::int64_t ldb = m + static_cast<std::int64_t>(rng.next_below(5));
    std::vector<double> l = random_matrix(ldl, n, rng);
    for (std::int64_t j = 0; j < n; ++j) l[j * ldl + j] += n;  // well-cond.
    const auto b0 = random_matrix(ldb, n, rng);
    std::vector<double> want = b0, got = b0;
    trsm_right_lower_transpose_ref(l.data(), ldl, want.data(), ldb, m, n);
    {
      LevelGuard guard(KernelLevel::kBlocked);
      trsm_right_lower_transpose(l.data(), ldl, got.data(), ldb, m, n);
    }
    expect_close(got, want, n, "trsm_right_lower_transpose");
  }
}

TEST(KernelDispatch, TrsmLeftBlockedMatchesRefRandomized) {
  Rng rng(44);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t m = 65 + static_cast<std::int64_t>(rng.next_below(40));
    const std::int64_t n = 4 + static_cast<std::int64_t>(rng.next_below(24));
    const std::int64_t ldl = m + static_cast<std::int64_t>(rng.next_below(5));
    const std::int64_t ldb = m + static_cast<std::int64_t>(rng.next_below(5));
    std::vector<double> l = random_matrix(ldl, m, rng);
    // Scale the multipliers so forward substitution cannot amplify: with
    // |l_ik| <= 1/(2m) the solution stays O(1) and the ULP bound is fair
    // (random unit-triangular solves are otherwise exponentially badly
    // conditioned in m).
    for (auto& v : l) v *= 0.5 / static_cast<double>(m);
    const auto b0 = random_matrix(ldb, n, rng);
    std::vector<double> want = b0, got = b0;
    trsm_left_unit_lower_ref(l.data(), ldl, want.data(), ldb, m, n);
    {
      LevelGuard guard(KernelLevel::kBlocked);
      trsm_left_unit_lower(l.data(), ldl, got.data(), ldb, m, n);
    }
    expect_close(got, want, m, "trsm_left_unit_lower");
  }
}

TEST(KernelDispatch, PotrfResidualTinyAtBothLevels) {
  Rng rng(45);
  const std::int64_t n = 97;  // past the blocked threshold, ragged edge
  const std::int64_t ld = n + 3;
  const std::vector<double> spd = random_spd(n, rng);
  std::vector<double> padded(static_cast<std::size_t>(ld * n), -7.0);
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < n; ++i) {
      padded[j * ld + i] = spd[j * n + i];
    }
  }
  for (const KernelLevel level :
       {KernelLevel::kRef, KernelLevel::kBlocked}) {
    std::vector<double> l = padded;
    {
      LevelGuard guard(level);
      potrf_lower(l.data(), ld, n);
    }
    // Reconstruction residual max |(L L^T - A)_ij| / n stays at round-off.
    double worst = 0.0;
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t i = j; i < n; ++i) {
        double dot = 0.0;
        for (std::int64_t k = 0; k <= j; ++k) {
          dot += l[k * ld + i] * l[k * ld + j];
        }
        worst = std::max(worst, std::abs(dot - spd[j * n + i]));
      }
    }
    EXPECT_LT(worst / static_cast<double>(n), 1e-10)
        << "level " << kernel_level_name(level);
    // Rows past n in each column are padding the kernel must not touch.
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t i = n; i < ld; ++i) {
        ASSERT_EQ(l[j * ld + i], -7.0);
      }
    }
  }
}

TEST(KernelDispatch, GetrfPanelResidualTinyAtBothLevels) {
  Rng rng(46);
  const std::int64_t m = 150, w = 96;  // blocked path (w >= 64, m >= 64)
  const std::int64_t ld = m + 2;
  std::vector<double> a0(static_cast<std::size_t>(ld * w));
  for (auto& v : a0) v = rng.next_double(-1.0, 1.0);
  for (const KernelLevel level :
       {KernelLevel::kRef, KernelLevel::kBlocked}) {
    std::vector<double> a = a0;
    std::vector<std::int32_t> piv(static_cast<std::size_t>(w));
    {
      LevelGuard guard(level);
      getrf_panel(a.data(), ld, m, w, piv.data());
    }
    // Pivots in range, |L| <= 1 (partial pivoting), and P A = L U.
    std::vector<double> pa = a0;
    for (std::int64_t j = 0; j < w; ++j) {
      ASSERT_GE(piv[j], j);
      ASSERT_LT(piv[j], m);
      if (piv[j] != j) {
        for (std::int64_t c = 0; c < w; ++c) {
          std::swap(pa[c * ld + j], pa[c * ld + piv[j]]);
        }
      }
    }
    double worst = 0.0;
    for (std::int64_t j = 0; j < w; ++j) {
      for (std::int64_t i = 0; i < m; ++i) {
        if (i > j) {
          ASSERT_LE(std::abs(a[j * ld + i]), 1.0 + 1e-12);
        }
        double dot = 0.0;
        const std::int64_t kmax = std::min<std::int64_t>(i, j);
        for (std::int64_t k = 0; k <= kmax; ++k) {
          const double lik = (i == k) ? 1.0 : a[k * ld + i];
          dot += lik * a[j * ld + k];
        }
        worst = std::max(worst, std::abs(dot - pa[j * ld + i]));
      }
    }
    EXPECT_LT(worst, 1e-9) << "level " << kernel_level_name(level);
  }
}

TEST(KernelDispatch, LevelRoundTripsAndNamesAreStable) {
  EXPECT_EQ(kernel_level(), KernelLevel::kAuto);
  set_kernel_level(KernelLevel::kRef);
  EXPECT_EQ(kernel_level(), KernelLevel::kRef);
  set_kernel_level(KernelLevel::kAuto);
  EXPECT_STREQ(kernel_level_name(KernelLevel::kAuto), "auto");
  EXPECT_STREQ(kernel_level_name(KernelLevel::kRef), "ref");
  EXPECT_STREQ(kernel_level_name(KernelLevel::kBlocked), "blocked");
}

TEST(Flops, CountsArePositiveAndMonotone) {
  EXPECT_GT(flops_potrf(8), 0.0);
  EXPECT_LT(flops_potrf(8), flops_potrf(16));
  EXPECT_DOUBLE_EQ(flops_gemm(2, 3, 4), 48.0);
  EXPECT_GT(flops_getrf_panel(100, 10), flops_getrf_panel(50, 10));
}

}  // namespace
}  // namespace rapid::num
