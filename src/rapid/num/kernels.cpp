#include "rapid/num/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "rapid/num/dispatch.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::num {

// ---------------------------------------------------------------------------
// Dispatch level.
// ---------------------------------------------------------------------------

namespace {
std::atomic<KernelLevel> g_kernel_level{KernelLevel::kAuto};
}  // namespace

KernelLevel kernel_level() noexcept {
  return g_kernel_level.load(std::memory_order_relaxed);
}

void set_kernel_level(KernelLevel level) noexcept {
  g_kernel_level.store(level, std::memory_order_relaxed);
}

const char* kernel_level_name(KernelLevel level) noexcept {
  switch (level) {
    case KernelLevel::kAuto: return "auto";
    case KernelLevel::kRef: return "ref";
    case KernelLevel::kBlocked: return "blocked";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Reference kernels — the original naive loops, unchanged. These are the
// correctness oracle for the blocked paths and the small-operand fast path
// (packing overhead dominates below the dispatch thresholds).
// ---------------------------------------------------------------------------

void potrf_lower_ref(double* a, std::int64_t ld, std::int64_t n) {
  RAPID_CHECK(ld >= n && n >= 0, "potrf: bad dimensions");
  for (std::int64_t j = 0; j < n; ++j) {
    double diag = a[j * ld + j];
    for (std::int64_t k = 0; k < j; ++k) {
      diag -= a[k * ld + j] * a[k * ld + j];
    }
    RAPID_CHECK(diag > 0.0,
                cat("potrf: non-positive pivot ", diag, " at column ", j));
    const double root = std::sqrt(diag);
    a[j * ld + j] = root;
    const double inv = 1.0 / root;
    for (std::int64_t i = j + 1; i < n; ++i) {
      double v = a[j * ld + i];
      for (std::int64_t k = 0; k < j; ++k) {
        v -= a[k * ld + i] * a[k * ld + j];
      }
      a[j * ld + i] = v * inv;
    }
  }
}

void trsm_right_lower_transpose_ref(const double* l, std::int64_t ldl,
                                    double* b, std::int64_t ldb,
                                    std::int64_t m, std::int64_t n) {
  // Solve X * L^T = B column by column of X: column j of X depends on
  // earlier columns since (X L^T)(:,j) = sum_{k>=j} X(:,k) L(j,k)... using
  // L lower: (L^T)(k,j) = L(j,k), nonzero for k <= j. So
  // B(:,j) = sum_{k<=j} X(:,k) * L(j,k)  =>  process j ascending.
  for (std::int64_t j = 0; j < n; ++j) {
    const double inv = 1.0 / l[j * ldl + j];
    for (std::int64_t k = 0; k < j; ++k) {
      const double ljk = l[k * ldl + j];
      if (ljk == 0.0) continue;
      for (std::int64_t i = 0; i < m; ++i) {
        b[j * ldb + i] -= b[k * ldb + i] * ljk;
      }
    }
    for (std::int64_t i = 0; i < m; ++i) {
      b[j * ldb + i] *= inv;
    }
  }
}

void trsm_left_unit_lower_ref(const double* l, std::int64_t ldl, double* x,
                              std::int64_t ldx, std::int64_t m,
                              std::int64_t n) {
  // Forward substitution with unit diagonal, per column of X.
  for (std::int64_t j = 0; j < n; ++j) {
    double* col = x + j * ldx;
    for (std::int64_t i = 0; i < m; ++i) {
      const double xi = col[i];
      if (xi == 0.0) continue;
      for (std::int64_t r = i + 1; r < m; ++r) {
        col[r] -= l[i * ldl + r] * xi;
      }
    }
  }
}

void gemm_minus_abt_ref(const double* a, std::int64_t lda, const double* b,
                        std::int64_t ldb, double* c, std::int64_t ldc,
                        std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double bjk = b[kk * ldb + j];
      if (bjk == 0.0) continue;
      const double* acol = a + kk * lda;
      double* ccol = c + j * ldc;
      for (std::int64_t i = 0; i < m; ++i) {
        ccol[i] -= acol[i] * bjk;
      }
    }
  }
}

void gemm_minus_ab_ref(const double* a, std::int64_t lda, const double* b,
                       std::int64_t ldb, double* c, std::int64_t ldc,
                       std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double bkj = b[j * ldb + kk];
      if (bkj == 0.0) continue;
      const double* acol = a + kk * lda;
      double* ccol = c + j * ldc;
      for (std::int64_t i = 0; i < m; ++i) {
        ccol[i] -= acol[i] * bkj;
      }
    }
  }
}

void getrf_panel_ref(double* a, std::int64_t ld, std::int64_t m,
                     std::int64_t w, std::int32_t* pivots) {
  RAPID_CHECK(m >= w && w >= 0, "getrf_panel: need m >= w");
  for (std::int64_t j = 0; j < w; ++j) {
    // Pivot search in column j, rows [j, m).
    std::int64_t piv = j;
    double best = std::abs(a[j * ld + j]);
    for (std::int64_t i = j + 1; i < m; ++i) {
      const double v = std::abs(a[j * ld + i]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    RAPID_CHECK(best > 0.0, cat("getrf: singular panel column ", j));
    pivots[j] = static_cast<std::int32_t>(piv);
    if (piv != j) {
      for (std::int64_t c = 0; c < w; ++c) {
        std::swap(a[c * ld + j], a[c * ld + piv]);
      }
    }
    const double inv = 1.0 / a[j * ld + j];
    for (std::int64_t i = j + 1; i < m; ++i) {
      a[j * ld + i] *= inv;
    }
    for (std::int64_t c = j + 1; c < w; ++c) {
      const double ujc = a[c * ld + j];
      if (ujc == 0.0) continue;
      for (std::int64_t i = j + 1; i < m; ++i) {
        a[c * ld + i] -= a[j * ld + i] * ujc;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked SIMD microkernels.
//
// GEMM is the workhorse: an 8x4 register-blocked microkernel over packed
// panels (A packed into 8-row strips, B into 4-column strips, both
// zero-padded to the tile size so the edge tiles run the same code).
// The triangular kernels and the LU panel reduce to GEMM on their trailing
// updates, with the reference loops on the (small) diagonal blocks.
// ---------------------------------------------------------------------------

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define RAPID_HAVE_VEC 1
// Vector width tracks the widest FMA unit the TU is compiled for (8 doubles
// under RAPID_NATIVE on AVX-512, otherwise 4; pre-AVX targets split the
// 256-bit ops in half transparently). aligned(8): packed panels and user
// buffers are only 8-byte aligned, so loads/stores must not assume the
// natural vector alignment.
#if defined(__AVX512F__)
constexpr std::int64_t kVw = 8;
#else
constexpr std::int64_t kVw = 4;
#endif
using vd = double __attribute__((vector_size(kVw * 8), aligned(8)));
#else
#define RAPID_HAVE_VEC 0
constexpr std::int64_t kVw = 4;
#endif

constexpr std::int64_t kMr = 2 * kVw;  // microkernel rows (2 vectors)
// Microkernel columns: 2*kNr accumulators + 3 operand vectors must fit the
// architectural vector register file (16 on AVX2, 32 on AVX-512).
constexpr std::int64_t kNr = kVw;
constexpr std::int64_t kKc = 1024;     // k-panel depth per packing pass
constexpr std::int64_t kNb = 32;  // diagonal-block size for potrf/trsm/getrf

// Per-thread packing buffers: task bodies call the kernels thousands of
// times on small blocks, so the panels must not allocate per call.
void thread_scratch(std::vector<double>*& apack, std::vector<double>*& bpack,
                    std::vector<double>*& tmp) {
  static thread_local std::vector<double> ap, bp, tp;
  apack = &ap;
  bpack = &bp;
  tmp = &tp;
}

// Packs the kMr-row strip of A at rows [i0, i0+mr) x columns [k0, k0+kc)
// kk-major (kk*kMr + r), zero-padded to kMr rows. Only the ragged last
// strip needs this — full strips are loaded straight out of A, since
// column-major storage already makes the kMr rows of one column contiguous.
void pack_a_strip(const double* a, std::int64_t lda, std::int64_t i0,
                  std::int64_t mr, std::int64_t k0, std::int64_t kc,
                  std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(kMr * kc));
  double* dst = out.data();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const double* src = a + (k0 + kk) * lda + i0;
    for (std::int64_t r = 0; r < mr; ++r) dst[r] = src[r];
    for (std::int64_t r = mr; r < kMr; ++r) dst[r] = 0.0;
    dst += kMr;
  }
}

// Packs one kNr-column strip of the B operand, columns [j0, j0+nr) x depth
// [k0, k0+kc), kk-major (kk*kNr + jj), zero-padded. `transposed` selects
// the storage convention:
//   true  — gemm_minus_abt: B is n x k, operand(j, kk) = b[kk*ldb + j]
//   false — gemm_minus_ab:  B is k x n, operand(j, kk) = b[j*ldb + kk]
void pack_b_strip(const double* b, std::int64_t ldb, std::int64_t j0,
                  std::int64_t nr, std::int64_t k0, std::int64_t kc,
                  bool transposed, double* dst) {
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    for (std::int64_t jj = 0; jj < nr; ++jj) {
      dst[jj] = transposed ? b[(k0 + kk) * ldb + (j0 + jj)]
                           : b[(j0 + jj) * ldb + (k0 + kk)];
    }
    for (std::int64_t jj = nr; jj < kNr; ++jj) dst[jj] = 0.0;
    dst += kNr;
  }
}

#if RAPID_HAVE_VEC

// The by-value v4d helpers never cross a TU boundary (all inlined here), so
// GCC's "AVX vector return without AVX enabled changes the ABI" warning
// does not apply.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

inline vd splat(double x) {
  vd v;
  for (std::int64_t lane = 0; lane < kVw; ++lane) v[lane] = x;
  return v;
}

// acc[kMr x kNr] += A-strip(kMr x kc) * Bp(kc x kNr); the caller subtracts
// the accumulator from C (C -= A*B convention). The A strip is read with
// stride `astride` per kk — kMr for a packed edge strip, lda to stream the
// kMr contiguous rows of each column straight out of A (column-major makes
// packing A unnecessary for full strips). Constant trip counts — the
// compiler fully unrolls this into 2*kNr independent FMA chains held in
// registers.
inline void micro_tile(const double* ap, std::int64_t astride,
                       const double* bp, std::int64_t bstride,
                       std::int64_t kc, vd acc[2 * kNr]) {
  vd c[kNr][2] = {};
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC unroll 4
#endif
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    vd a0, a1;
    std::memcpy(&a0, ap, sizeof(vd));
    std::memcpy(&a1, ap + kVw, sizeof(vd));
    for (std::int64_t jj = 0; jj < kNr; ++jj) {
      const vd b = splat(bp[jj]);
      c[jj][0] += a0 * b;
      c[jj][1] += a1 * b;
    }
    ap += astride;
    bp += bstride;
  }
  for (std::int64_t jj = 0; jj < kNr; ++jj) {
    acc[2 * jj] = c[jj][0];
    acc[2 * jj + 1] = c[jj][1];
  }
}

// Full kMr x kNr tile: subtract the accumulator straight into C.
inline void store_full_tile(double* c, std::int64_t ldc,
                            const vd acc[2 * kNr]) {
  for (std::int64_t jj = 0; jj < kNr; ++jj) {
    double* col = c + jj * ldc;
    vd lo, hi;
    std::memcpy(&lo, col, sizeof(vd));
    std::memcpy(&hi, col + kVw, sizeof(vd));
    lo -= acc[2 * jj];
    hi -= acc[2 * jj + 1];
    std::memcpy(col, &lo, sizeof(vd));
    std::memcpy(col + kVw, &hi, sizeof(vd));
  }
}

#else  // !RAPID_HAVE_VEC — scalar register-blocked fallback.

struct vd {
  double lane[kVw];
};

inline void micro_tile(const double* ap, std::int64_t astride,
                       const double* bp, std::int64_t bstride,
                       std::int64_t kc, vd acc[2 * kNr]) {
  double buf[kMr * kNr] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    for (std::int64_t jj = 0; jj < kNr; ++jj) {
      const double b = bp[jj];
      double* col = buf + jj * kMr;
      for (std::int64_t r = 0; r < kMr; ++r) col[r] += ap[r] * b;
    }
    ap += astride;
    bp += bstride;
  }
  std::memcpy(acc, buf, sizeof(buf));
}

inline void store_full_tile(double* c, std::int64_t ldc,
                            const vd acc[2 * kNr]) {
  const double* buf = reinterpret_cast<const double*>(acc);
  for (std::int64_t jj = 0; jj < kNr; ++jj) {
    double* col = c + jj * ldc;
    for (std::int64_t r = 0; r < kMr; ++r) col[r] -= buf[jj * kMr + r];
  }
}

#endif  // RAPID_HAVE_VEC

// Edge tile: spill the (zero-padded) accumulator and subtract only the live
// mr x nr corner.
inline void store_edge_tile(double* c, std::int64_t ldc,
                            const vd acc[2 * kNr], std::int64_t mr,
                            std::int64_t nr) {
  double buf[kMr * kNr];
  std::memcpy(buf, acc, sizeof(buf));
  for (std::int64_t jj = 0; jj < nr; ++jj) {
    double* col = c + jj * ldc;
    for (std::int64_t r = 0; r < mr; ++r) col[r] -= buf[jj * kMr + r];
  }
}

// C -= A * op(B); `b_transposed` picks abt vs ab. Full A strips stream
// directly out of the column-major storage (the kMr rows of one column are
// contiguous), and in the abt case so do the kNr B values per depth step
// (operand(j, kk) = b[kk*ldb + j]), so only the ab orientation packs B into
// kNr-column panels; ragged edge strips get packed (zero-padded) in both.
void gemm_minus_blocked(const double* a, std::int64_t lda, const double* b,
                        std::int64_t ldb, double* c, std::int64_t ldc,
                        std::int64_t m, std::int64_t n, std::int64_t k,
                        bool b_transposed) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  std::vector<double>*apack, *bpack, *tmp;
  thread_scratch(apack, bpack, tmp);
  const std::int64_t m_main = m - m % kMr;
  const std::int64_t n_main = b_transposed ? n - n % kNr : n;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKc) {
    const std::int64_t kc = std::min(kKc, k - k0);
    // For ab, pack every strip; for abt, only the ragged last one.
    const std::int64_t packed_strips =
        b_transposed ? (n_main < n ? 1 : 0) : (n + kNr - 1) / kNr;
    bpack->resize(static_cast<std::size_t>(packed_strips * kNr * kc));
    if (b_transposed) {
      if (n_main < n) {
        pack_b_strip(b, ldb, n_main, n - n_main, k0, kc, true, bpack->data());
      }
    } else {
      for (std::int64_t s = 0; s < packed_strips; ++s) {
        pack_b_strip(b, ldb, s * kNr, std::min(kNr, n - s * kNr), k0, kc,
                     false, bpack->data() + s * kNr * kc);
      }
    }
    if (m_main < m) {
      pack_a_strip(a, lda, m_main, m - m_main, k0, kc, *apack);
    }
    for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
      const std::int64_t nr = std::min(kNr, n - j0);
      const double* bp;
      std::int64_t bstride;
      if (b_transposed && j0 < n_main) {
        bp = b + k0 * ldb + j0;
        bstride = ldb;
      } else if (b_transposed) {
        bp = bpack->data();
        bstride = kNr;
      } else {
        bp = bpack->data() + (j0 / kNr) * kNr * kc;
        bstride = kNr;
      }
      vd acc[2 * kNr];
      for (std::int64_t i0 = 0; i0 < m_main; i0 += kMr) {
        micro_tile(a + k0 * lda + i0, lda, bp, bstride, kc, acc);
        double* ctile = c + j0 * ldc + i0;
        if (nr == kNr) {
          store_full_tile(ctile, ldc, acc);
        } else {
          store_edge_tile(ctile, ldc, acc, kMr, nr);
        }
      }
      if (m_main < m) {
        micro_tile(apack->data(), kMr, bp, bstride, kc, acc);
        store_edge_tile(c + j0 * ldc + m_main, ldc, acc, m - m_main, nr);
      }
    }
  }
}

// Blocked X * L^T = B: per kNb-wide column block, subtract the contribution
// of the already-solved columns with GEMM, then reference-solve the
// diagonal block.
void trsm_right_lower_transpose_blocked(const double* l, std::int64_t ldl,
                                        double* b, std::int64_t ldb,
                                        std::int64_t m, std::int64_t n) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNb) {
    const std::int64_t jb = std::min(kNb, n - j0);
    if (j0 > 0) {
      // B(:, j0:j0+jb) -= X(:, 0:j0) * L(j0:j0+jb, 0:j0)^T.
      gemm_minus_blocked(b, ldb, l + j0, ldl, b + j0 * ldb, ldb, m, jb, j0,
                         /*b_transposed=*/true);
    }
    trsm_right_lower_transpose_ref(l + j0 * ldl + j0, ldl, b + j0 * ldb, ldb,
                                   m, jb);
  }
}

// Blocked L^{-1} X: reference-solve each kNb-row diagonal block, then GEMM
// the update into the rows below it.
void trsm_left_unit_lower_blocked(const double* l, std::int64_t ldl,
                                  double* x, std::int64_t ldx, std::int64_t m,
                                  std::int64_t n) {
  for (std::int64_t i0 = 0; i0 < m; i0 += kNb) {
    const std::int64_t ib = std::min(kNb, m - i0);
    trsm_left_unit_lower_ref(l + i0 * ldl + i0, ldl, x + i0, ldx, ib, n);
    const std::int64_t rest = m - i0 - ib;
    if (rest > 0) {
      // X(i0+ib:m, :) -= L(i0+ib:m, i0:i0+ib) * X(i0:i0+ib, :).
      gemm_minus_blocked(l + i0 * ldl + i0 + ib, ldl, x + i0, ldx,
                         x + i0 + ib, ldx, rest, n, ib,
                         /*b_transposed=*/false);
    }
  }
}

// Blocked right-looking Cholesky: reference potrf on the kNb diagonal
// block, blocked TRSM on the panel below it, then a GEMM trailing update.
// The trailing update of each diagonal block goes through a scratch tile so
// the strictly upper triangle is never referenced (same contract as the
// reference kernel).
void potrf_lower_blocked(double* a, std::int64_t ld, std::int64_t n) {
  RAPID_CHECK(ld >= n && n >= 0, "potrf: bad dimensions");
  std::vector<double>*apack, *bpack, *tmp;
  thread_scratch(apack, bpack, tmp);
  for (std::int64_t j0 = 0; j0 < n; j0 += kNb) {
    const std::int64_t jb = std::min(kNb, n - j0);
    double* diag = a + j0 * ld + j0;
    potrf_lower_ref(diag, ld, jb);
    const std::int64_t below = n - j0 - jb;
    if (below <= 0) continue;
    double* panel = a + j0 * ld + j0 + jb;  // (n-j0-jb) x jb
    trsm_right_lower_transpose_blocked(diag, ld, panel, ld, below, jb);
    // Trailing update: A(cb:n, cb:cb+cw) -= P(cb-row:) * P(cb-row:)^T per
    // column block cb, split into the diagonal cw x cw tile (via scratch,
    // lower part only) and the full rectangle beneath it.
    for (std::int64_t cb = j0 + jb; cb < n; cb += kNb) {
      const std::int64_t cw = std::min(kNb, n - cb);
      const double* prow = a + j0 * ld + cb;  // P rows for this block
      tmp->assign(static_cast<std::size_t>(cw * cw), 0.0);
      gemm_minus_blocked(prow, ld, prow, ld, tmp->data(), cw, cw, cw, jb,
                         /*b_transposed=*/true);
      double* cdiag = a + cb * ld + cb;
      for (std::int64_t jj = 0; jj < cw; ++jj) {
        for (std::int64_t ii = jj; ii < cw; ++ii) {
          cdiag[jj * ld + ii] += (*tmp)[static_cast<std::size_t>(jj * cw + ii)];
        }
      }
      const std::int64_t sub = n - cb - cw;
      if (sub > 0) {
        gemm_minus_blocked(a + j0 * ld + cb + cw, ld, prow, ld,
                           a + cb * ld + cb + cw, ld, sub, cw, jb,
                           /*b_transposed=*/true);
      }
    }
  }
}

// Blocked LU panel: reference-factor kNb-wide sub-panels, swap their pivot
// rows across the rest of the panel, solve the U12 strip, GEMM the trailing
// sub-panel. Pivot encoding matches getrf_panel_ref (absolute panel rows).
void getrf_panel_blocked(double* a, std::int64_t ld, std::int64_t m,
                         std::int64_t w, std::int32_t* pivots) {
  RAPID_CHECK(m >= w && w >= 0, "getrf_panel: need m >= w");
  for (std::int64_t j0 = 0; j0 < w; j0 += kNb) {
    const std::int64_t wb = std::min(kNb, w - j0);
    getrf_panel_ref(a + j0 * ld + j0, ld, m - j0, wb, pivots + j0);
    // Rebase sub-panel pivots to absolute panel rows and apply the swaps to
    // the columns outside the sub-panel.
    for (std::int64_t jj = 0; jj < wb; ++jj) {
      const std::int64_t r1 = j0 + jj;
      const std::int64_t r2 = j0 + pivots[j0 + jj];
      pivots[j0 + jj] = static_cast<std::int32_t>(r2);
      if (r1 == r2) continue;
      for (std::int64_t c = 0; c < j0; ++c) {
        std::swap(a[c * ld + r1], a[c * ld + r2]);
      }
      for (std::int64_t c = j0 + wb; c < w; ++c) {
        std::swap(a[c * ld + r1], a[c * ld + r2]);
      }
    }
    const std::int64_t right = w - j0 - wb;
    if (right <= 0) continue;
    // U12 := L11^{-1} U12, then A22 -= L21 * U12.
    trsm_left_unit_lower_blocked(a + j0 * ld + j0, ld,
                                 a + (j0 + wb) * ld + j0, ld, wb, right);
    const std::int64_t below = m - j0 - wb;
    if (below > 0) {
      gemm_minus_blocked(a + j0 * ld + j0 + wb, ld, a + (j0 + wb) * ld + j0,
                         ld, a + (j0 + wb) * ld + j0 + wb, ld, below, right,
                         wb, /*b_transposed=*/false);
    }
  }
}

// Size heuristics for kAuto: below these, packing overhead beats the SIMD
// win and the reference loops are faster. n and k both need to clear the
// register-tile footprint with headroom: for skinny updates (n = k = 10,
// the tall trailing GEMM of a narrow-panel LU) the packed tiles are mostly
// fringe and the blocked path measures *slower* than the reference loops
// once m is a few hundred rows, while at n = k = 16 it wins at every m.
inline bool auto_gemm(std::int64_t m, std::int64_t n, std::int64_t k) {
  return m >= 16 && n >= 12 && k >= 12;
}

inline bool use_blocked(bool auto_ok) {
  switch (kernel_level()) {
    case KernelLevel::kRef: return false;
    case KernelLevel::kBlocked: return true;
    case KernelLevel::kAuto: break;
  }
  return auto_ok;
}

}  // namespace

bool kernels_vectorized() noexcept {
#if RAPID_HAVE_VEC
  return true;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Dispatching entry points.
// ---------------------------------------------------------------------------

void potrf_lower(double* a, std::int64_t ld, std::int64_t n) {
  if (use_blocked(n >= 2 * kNb)) {
    potrf_lower_blocked(a, ld, n);
  } else {
    potrf_lower_ref(a, ld, n);
  }
}

void trsm_right_lower_transpose(const double* l, std::int64_t ldl, double* b,
                                std::int64_t ldb, std::int64_t m,
                                std::int64_t n) {
  if (use_blocked(n >= 2 * kNb && m >= 8)) {
    trsm_right_lower_transpose_blocked(l, ldl, b, ldb, m, n);
  } else {
    trsm_right_lower_transpose_ref(l, ldl, b, ldb, m, n);
  }
}

void trsm_left_unit_lower(const double* l, std::int64_t ldl, double* x,
                          std::int64_t ldx, std::int64_t m, std::int64_t n) {
  if (use_blocked(m >= 2 * kNb && n >= 4)) {
    trsm_left_unit_lower_blocked(l, ldl, x, ldx, m, n);
  } else {
    trsm_left_unit_lower_ref(l, ldl, x, ldx, m, n);
  }
}

void gemm_minus_abt(const double* a, std::int64_t lda, const double* b,
                    std::int64_t ldb, double* c, std::int64_t ldc,
                    std::int64_t m, std::int64_t n, std::int64_t k) {
  if (use_blocked(auto_gemm(m, n, k))) {
    gemm_minus_blocked(a, lda, b, ldb, c, ldc, m, n, k,
                       /*b_transposed=*/true);
  } else {
    gemm_minus_abt_ref(a, lda, b, ldb, c, ldc, m, n, k);
  }
}

void gemm_minus_ab(const double* a, std::int64_t lda, const double* b,
                   std::int64_t ldb, double* c, std::int64_t ldc,
                   std::int64_t m, std::int64_t n, std::int64_t k) {
  if (use_blocked(auto_gemm(m, n, k))) {
    gemm_minus_blocked(a, lda, b, ldb, c, ldc, m, n, k,
                       /*b_transposed=*/false);
  } else {
    gemm_minus_ab_ref(a, lda, b, ldb, c, ldc, m, n, k);
  }
}

void getrf_panel(double* a, std::int64_t ld, std::int64_t m, std::int64_t w,
                 std::int32_t* pivots) {
  if (use_blocked(w >= 2 * kNb && m >= 2 * kNb)) {
    getrf_panel_blocked(a, ld, m, w, pivots);
  } else {
    getrf_panel_ref(a, ld, m, w, pivots);
  }
}

void apply_pivots(double* a, std::int64_t ld, std::int64_t n,
                  std::int64_t row_offset,
                  std::span<const std::int32_t> pivots) {
  for (std::size_t j = 0; j < pivots.size(); ++j) {
    const std::int64_t r1 = row_offset + static_cast<std::int64_t>(j);
    const std::int64_t r2 = row_offset + pivots[j];
    if (r1 == r2) continue;
    for (std::int64_t c = 0; c < n; ++c) {
      std::swap(a[c * ld + r1], a[c * ld + r2]);
    }
  }
}

double flops_potrf(std::int64_t n) {
  return static_cast<double>(n) * n * n / 3.0;
}

double flops_trsm(std::int64_t m, std::int64_t n) {
  return static_cast<double>(m) * n * n;
}

double flops_gemm(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2.0 * static_cast<double>(m) * n * k;
}

double flops_getrf_panel(std::int64_t m, std::int64_t w) {
  return static_cast<double>(m) * w * w;
}

}  // namespace rapid::num
