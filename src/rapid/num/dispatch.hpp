// Kernel dispatch: every public kernel in kernels.hpp is a thin selector
// between the original reference loops (kept verbatim as `*_ref`) and the
// register-blocked, explicitly vectorized microkernels added by the hot-path
// pass. Selection is process-global and cheap (one relaxed atomic load per
// kernel call):
//
//   kAuto    — size heuristic: small operands take the reference loops
//              (packing overhead dominates below ~16x8x8), large operands
//              take the blocked path. This is the default.
//   kRef     — force the reference loops (bit-exact with the pre-PR code).
//   kBlocked — force the blocked/SIMD path regardless of size; used by the
//              property tests so edge shapes (m % 8 != 0, n % 4 != 0, tiny
//              k) exercise the microkernel tails.
//
// The blocked path uses portable GCC/Clang vector extensions
// (`__attribute__((vector_size)))` when available and a scalar
// register-blocked fallback otherwise; `kernels_vectorized()` reports which
// one was compiled in. The `RAPID_NATIVE` CMake option additionally compiles
// the rapid_num library with -march=native so the vector extension types
// widen to whatever the host offers (AVX2/AVX-512 on x86).
#pragma once

#include <cstdint>

namespace rapid::num {

enum class KernelLevel : std::int32_t {
  kAuto = 0,
  kRef = 1,
  kBlocked = 2,
};

/// The process-global dispatch level (relaxed load; default kAuto).
KernelLevel kernel_level() noexcept;

/// Sets the process-global dispatch level. Intended for tests and benches;
/// task bodies never touch it.
void set_kernel_level(KernelLevel level) noexcept;

/// "auto" / "ref" / "blocked".
const char* kernel_level_name(KernelLevel level) noexcept;

/// True when the blocked path was compiled with GCC/Clang vector extensions
/// (false means the scalar register-blocked fallback is in use).
bool kernels_vectorized() noexcept;

}  // namespace rapid::num
