// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_BASE_SIMD_GEMM_H_
#define LPSGD_BASE_SIMD_GEMM_H_

#include <cstdint>

#include "base/simd/simd.h"

namespace lpsgd {

// Width of the Gemm micro-kernels' register tile: one row of C, kGemmNr
// columns. Every ISA uses it, so the packed layouts the blocked driver in
// tensor/ops.cc builds are the same for every ISA.
inline constexpr int64_t kGemmNr = 32;

// The inner kernels of the blocked Gemm. Every entry is bit-exact across
// ISAs: each C element sees the same IEEE operations in the same order as
// the scalar reference — a multiply, then a separate add (never an FMA),
// k ascending. Vector width only changes how many j run side by side.
struct GemmKernels {
  // Updates kGemmNr consecutive elements of one row of C. They are first
  // loaded as beta * c with Gemm's beta rules (0 gives zeros without
  // reading c, 1 leaves c untouched). Then for t = 0 .. count-1 in order,
  // with b_t the kGemmNr floats at b + k_index[t] * kGemmNr:
  // c[j] = c[j] + a[t] * b_t[j]. Where both operands are NaN, the
  // multiply returns a[t] and the add c[j]. The caller packs only the
  // nonzero alpha * a_ik, k ascending, so the skipped updates never reach
  // here.
  void (*micro_kernel)(int64_t count, const float* a, const int32_t* k_index,
                       const float* b, float beta, float* c);
  // Transposing pack of one op(B) column strip: `rows` (<= kGemmNr) rows
  // of a row-major matrix with row stride ld, kc floats each, become the
  // k-major strip out[k * kGemmNr + row]; rows >= `rows` are zero-filled.
  void (*pack_transposed)(const float* src, int64_t ld, int64_t rows,
                          int64_t kc, float* out);
};

// Kernel table for `isa`; unsupported or not-compiled-in ISAs resolve to
// the scalar table.
const GemmKernels& GemmKernelsForIsa(SimdIsa isa);

inline const GemmKernels& ActiveGemmKernels() {
  return GemmKernelsForIsa(ActiveSimdIsa());
}

// The always-compiled scalar golden reference.
namespace simd_scalar {
void GemmMicroKernel(int64_t count, const float* a, const int32_t* k_index,
                     const float* b, float beta, float* c);
void GemmPackTransposed(const float* src, int64_t ld, int64_t rows,
                        int64_t kc, float* out);
}  // namespace simd_scalar

// Vector variants, defined in gemm_simd.cc.
#if defined(__x86_64__)
namespace simd_avx2 {
void GemmMicroKernel(int64_t count, const float* a, const int32_t* k_index,
                     const float* b, float beta, float* c);
void GemmPackTransposed(const float* src, int64_t ld, int64_t rows,
                        int64_t kc, float* out);
}  // namespace simd_avx2
#endif

}  // namespace lpsgd

#endif  // LPSGD_BASE_SIMD_GEMM_H_
