// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "base/simd/gemm.h"

#include <cmath>

#include "base/thread_annotations.h"

namespace lpsgd {
namespace simd_scalar {

LPSGD_HOT_PATH
void GemmMicroKernel(int64_t count, const float* a, const int32_t* k_index,
                     const float* b, float beta, float* c) {
  float acc[kGemmNr];
  for (int64_t j = 0; j < kGemmNr; ++j) {
    acc[j] = beta == 0.0f ? 0.0f : beta == 1.0f ? c[j] : c[j] * beta;
  }
  // When both operands of an add or a multiply are NaN, x86 returns the
  // first one, and the compiler may swap the operands of either. The
  // selects pin the order as written, as the AVX2 kernel's register
  // operands do: a_ik's NaN survives the multiply and the accumulator's
  // the add, so no result NaN depends on how a caller splits k into calls.
  for (int64_t t = 0; t < count; ++t) {
    const float at = a[t];
    const float* brow = b + int64_t{k_index[t]} * kGemmNr;
    const bool at_nan = std::isnan(at);
    for (int64_t j = 0; j < kGemmNr; ++j) {
      const float product = at_nan ? at : at * brow[j];
      const float sum = acc[j] + product;
      acc[j] = std::isnan(acc[j]) ? acc[j] : sum;
    }
  }
  for (int64_t j = 0; j < kGemmNr; ++j) c[j] = acc[j];
}

LPSGD_HOT_PATH
void GemmPackTransposed(const float* src, int64_t ld, int64_t rows,
                        int64_t kc, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * ld;
    for (int64_t k = 0; k < kc; ++k) out[k * kGemmNr + r] = row[k];
  }
  for (int64_t r = rows; r < kGemmNr; ++r) {
    for (int64_t k = 0; k < kc; ++k) out[k * kGemmNr + r] = 0.0f;
  }
}

}  // namespace simd_scalar

const GemmKernels& GemmKernelsForIsa(SimdIsa isa) {
  static const GemmKernels scalar = {simd_scalar::GemmMicroKernel,
                                     simd_scalar::GemmPackTransposed};
#if defined(__x86_64__)
  static const GemmKernels avx2 = {simd_avx2::GemmMicroKernel,
                                   simd_avx2::GemmPackTransposed};
  if (isa == SimdIsa::kAvx2 && SimdIsaSupported(SimdIsa::kAvx2)) return avx2;
#endif
  (void)isa;
  return scalar;
}

}  // namespace lpsgd
