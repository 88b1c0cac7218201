// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Vector staging kernel of the error-feedback stage
// (GradientCodec::EncodeRange) and of TopK's selection: out[i] = grad[i] +
// error[i], or grad[i] + literal 0.0f when no error is carried. The 0.0f
// add is wire-visible for TopK (it flushes -0.0f to +0.0f in the stored
// values), so the no-error path adds a zero vector rather than copying.
#include "quant/simd_kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

namespace lpsgd {
namespace quant_simd {
namespace avx2 {

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void StageCorrected(const float* grad, const float* error, float* out,
                    int64_t n) {
  int64_t i = 0;
  if (error != nullptr) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(grad + i),
                                              _mm256_loadu_ps(error + i)));
    }
  } else {
    const __m256 zero = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(grad + i),
                                              zero));
    }
  }
  for (; i < n; ++i) {
    out[i] = grad[i] + (error != nullptr ? error[i] : 0.0f);
  }
}

}  // namespace avx2
}  // namespace quant_simd
}  // namespace lpsgd

#endif  // defined(__x86_64__)

#if defined(__aarch64__)

#include <arm_neon.h>

namespace lpsgd {
namespace quant_simd {
namespace neon {

LPSGD_HOT_PATH
void StageCorrected(const float* grad, const float* error, float* out,
                    int64_t n) {
  int64_t i = 0;
  if (error != nullptr) {
    for (; i + 4 <= n; i += 4) {
      vst1q_f32(out + i, vaddq_f32(vld1q_f32(grad + i), vld1q_f32(error + i)));
    }
  } else {
    const float32x4_t zero = vdupq_n_f32(0.0f);
    for (; i + 4 <= n; i += 4) {
      vst1q_f32(out + i, vaddq_f32(vld1q_f32(grad + i), zero));
    }
  }
  for (; i < n; ++i) {
    out[i] = grad[i] + (error != nullptr ? error[i] : 0.0f);
  }
}

}  // namespace neon
}  // namespace quant_simd
}  // namespace lpsgd

#endif  // defined(__aarch64__)
