// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// AVX2 kernels for the flat-bitmap 1bitSGD* hot loops. The sign test is
// the scalar `grad[i] >= 0.0f` as an ordered compare (NOT a raw sign-bit
// movemask: -0.0f must count positive and NaN must count negative, exactly
// like the scalar reference); 32 sign bits are assembled per word from
// four 8-lane masks. Buckets may start and end mid-word, so the kernels
// align to 32-element boundaries scalar-first.
#include "quant/simd_kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

namespace lpsgd {
namespace quant_simd {
namespace avx2 {

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void OneBitQuantize(const float* grad, int64_t begin, int64_t end,
                    uint32_t* bits) {
  int64_t i = begin;
  while (i < end && (i & 31) != 0) {
    OneBitStep(grad[i - begin], i, bits);
    ++i;
  }
  const __m256 zero = _mm256_setzero_ps();
  for (; i + 32 <= end; i += 32) {
    uint32_t word = 0;
    for (int k = 0; k < 32; k += 8) {
      const __m256 positive = _mm256_cmp_ps(
          _mm256_loadu_ps(grad + (i - begin) + k), zero, _CMP_GE_OQ);
      word |= static_cast<uint32_t>(_mm256_movemask_ps(positive)) << k;
    }
    bits[i >> 5] |= word;
  }
  for (; i < end; ++i) {
    OneBitStep(grad[i - begin], i, bits);
  }
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void OneBitDequantize(const uint32_t* bits, int64_t begin, int64_t end,
                      float avg_pos, float avg_neg, float* out) {
  int64_t i = begin;
  while (i < end && (i & 31) != 0) {
    out[i - begin] = OneBitValue(bits, i, avg_pos, avg_neg);
    ++i;
  }
  const __m256i lane_bit =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256 pos_v = _mm256_set1_ps(avg_pos);
  const __m256 neg_v = _mm256_set1_ps(avg_neg);
  for (; i + 32 <= end; i += 32) {
    const uint32_t word = bits[i >> 5];
    for (int k = 0; k < 32; k += 8) {
      const __m256i selected = _mm256_and_si256(
          _mm256_set1_epi32(static_cast<int>(word >> k)), lane_bit);
      const __m256 is_pos = _mm256_castsi256_ps(
          _mm256_cmpeq_epi32(selected, lane_bit));
      _mm256_storeu_ps(out + (i - begin) + k,
                       _mm256_blendv_ps(neg_v, pos_v, is_pos));
    }
  }
  for (; i < end; ++i) {
    out[i - begin] = OneBitValue(bits, i, avg_pos, avg_neg);
  }
}

}  // namespace avx2
}  // namespace quant_simd
}  // namespace lpsgd

#endif  // defined(__x86_64__)
