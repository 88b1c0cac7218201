// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Vector elementwise kernels. Every loop here must produce bytes identical
// to the simd_scalar reference: only lane-independent IEEE operations (and
// the order-insensitive max fold) are vectorized, selects mirror the scalar
// ternaries exactly (including their NaN behavior), and tails run the
// scalar loops. tests/base/simd_test.cc asserts the equivalence.
#include "base/simd/elementwise.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/thread_annotations.h"

#if defined(__x86_64__)
#include <immintrin.h>

namespace lpsgd {
namespace simd_avx2 {
namespace {

// (acc < x) ? x : acc per lane — the exact std::max(acc, x) select,
// including dropping NaN lanes (unordered compare is false).
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH inline __m256 MaxLikeScalar(
    __m256 acc, __m256 x) {
  return _mm256_blendv_ps(acc, x, _mm256_cmp_ps(acc, x, _CMP_LT_OQ));
}

}  // namespace

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
double MaxAbsF32(const float* x, int64_t n) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = MaxLikeScalar(acc, _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask));
  }
  // Horizontal fold with the same select; the max of non-NaN |x| values is
  // associative and commutative, so lane order cannot change the result.
  __m128 lo = _mm256_castps256_ps128(acc);
  __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 m = _mm_blendv_ps(lo, hi, _mm_cmplt_ps(lo, hi));
  __m128 sh = _mm_movehl_ps(m, m);
  m = _mm_blendv_ps(m, sh, _mm_cmplt_ps(m, sh));
  sh = _mm_shuffle_ps(m, m, 0x1);
  m = _mm_blendv_ps(m, sh, _mm_cmplt_ps(m, sh));
  double value = static_cast<double>(_mm_cvtss_f32(m));
  for (; i < n; ++i) {
    value = std::max(value, std::abs(static_cast<double>(x[i])));
  }
  return value;
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void AddF32(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void AddAssignF32(float* acc, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                                            _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void AccumulateF64(double* acc, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wide = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), wide));
  }
  for (; i < n; ++i) acc[i] += static_cast<double>(x[i]);
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void StoreF64AsF32(const double* acc, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(acc[i]);
  // GCC's automatic vzeroupper misses the exit after vcvtpd2ps (its result
  // is an xmm register), which left the upper YMM halves dirty and made
  // later legacy-SSE code on the thread (libm, Rng) run several times
  // slower. Clear them explicitly.
  _mm256_zeroupper();
}

// One dependent chain of 8-byte crc32 instructions (SSE4.2, which the AVX2
// target enables); they compute the same reflected 0x82F63B78 remainder as
// the scalar tables. One chain already makes the checksum a small share of
// an exchange, so there is no multi-stream interleave and combine step.
LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
uint32_t Crc32c(const uint8_t* bytes, int64_t n) {
  uint64_t crc = 0xffffffffu;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; i < n; ++i) crc32 = _mm_crc32_u8(crc32, bytes[i]);
  return ~crc32;
}

}  // namespace simd_avx2
}  // namespace lpsgd
#endif  // defined(__x86_64__)

#if defined(__aarch64__)
#include <arm_neon.h>

namespace lpsgd {
namespace simd_neon {

LPSGD_HOT_PATH
double MaxAbsF32(const float* x, int64_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t a = vabsq_f32(vld1q_f32(x + i));
    // (acc < a) ? a : acc — mirrors the scalar std::max NaN drop.
    acc = vbslq_f32(vcltq_f32(acc, a), a, acc);
  }
  float value_f = 0.0f;
  float lanes[4];
  vst1q_f32(lanes, acc);
  for (const float lane : lanes) {
    if (value_f < lane) value_f = lane;
  }
  double value = static_cast<double>(value_f);
  for (; i < n; ++i) {
    const double a = std::abs(static_cast<double>(x[i]));
    if (value < a) value = a;
  }
  return value;
}

LPSGD_HOT_PATH
void AddF32(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

LPSGD_HOT_PATH
void AddAssignF32(float* acc, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(acc + i, vaddq_f32(vld1q_f32(acc + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

LPSGD_HOT_PATH
void AccumulateF64(double* acc, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wide = vcvt_f64_f32(vld1_f32(x + i));
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), wide));
  }
  for (; i < n; ++i) acc[i] += static_cast<double>(x[i]);
}

LPSGD_HOT_PATH
void StoreF64AsF32(const double* acc, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1_f32(out + i, vcvt_f32_f64(vld1q_f64(acc + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(acc[i]);
}

}  // namespace simd_neon
}  // namespace lpsgd
#endif  // defined(__aarch64__)
