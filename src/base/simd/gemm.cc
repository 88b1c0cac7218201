// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "base/simd/gemm.h"

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
  for (int64_t t = 0; t < count; ++t) {
    const float at = a[t];
    const float* brow = b + int64_t{k_index[t]} * kGemmNr;
    for (int64_t j = 0; j < kGemmNr; ++j) acc[j] = acc[j] + at * brow[j];
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
