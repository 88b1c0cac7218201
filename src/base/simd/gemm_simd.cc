// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Vector Gemm kernels. Each lane of the micro-kernel is one C element and
// runs exactly the scalar reference's operations in its order: the beta
// load, then per packed k a multiply and a separate add (no FMA
// contraction, which would round once instead of twice). The tile is one
// row of C, so every lane shares a_ik and the alpha * a == 0 skip needs no
// per-lane select: the driver simply does not pack those k.
// tests/tensor/ops_test.cc checks the equivalence byte for byte.
#include "base/simd/gemm.h"

#include "base/thread_annotations.h"

#if defined(__x86_64__)
#include <immintrin.h>

namespace lpsgd {
namespace simd_avx2 {
namespace {

static_assert(kGemmNr == 32, "the AVX2 micro-kernel holds four vectors");

// Gemm's beta rules on one loaded vector of C.
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH inline __m256 LoadScaled(
    const float* c, float beta) {
  if (beta == 0.0f) return _mm256_setzero_ps();
  const __m256 v = _mm256_loadu_ps(c);
  return beta == 1.0f ? v : _mm256_mul_ps(v, _mm256_set1_ps(beta));
}

// In-register transpose of eight rows of eight floats: on return r[t]
// holds element t of every input row.
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH inline void Transpose8x8(__m256* r) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

}  // namespace

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void GemmMicroKernel(int64_t count, const float* a, const int32_t* k_index,
                     const float* b, float beta, float* c) {
  __m256 c0 = LoadScaled(c, beta);
  __m256 c1 = LoadScaled(c + 8, beta);
  __m256 c2 = LoadScaled(c + 16, beta);
  __m256 c3 = LoadScaled(c + 24, beta);
  for (int64_t t = 0; t < count; ++t) {
    const float* brow = b + int64_t{k_index[t]} * kGemmNr;
    const __m256 at = _mm256_broadcast_ss(a + t);
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(at, _mm256_loadu_ps(brow)));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(at, _mm256_loadu_ps(brow + 8)));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(at, _mm256_loadu_ps(brow + 16)));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(at, _mm256_loadu_ps(brow + 24)));
  }
  _mm256_storeu_ps(c, c0);
  _mm256_storeu_ps(c + 8, c1);
  _mm256_storeu_ps(c + 16, c2);
  _mm256_storeu_ps(c + 24, c3);
  // Leave the upper YMM halves clean for legacy-SSE code on this thread.
  _mm256_zeroupper();
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void GemmPackTransposed(const float* src, int64_t ld, int64_t rows,
                        int64_t kc, float* out) {
  if (rows < kGemmNr) {
    simd_scalar::GemmPackTransposed(src, ld, rows, kc, out);
    return;
  }
  // Eight source rows at a time: rows of a large B sit a multiple of
  // 4 KiB apart and share one L1 set, so more at once would thrash it.
  const int64_t kv = kc - kc % 8;
  for (int64_t group = 0; group < kGemmNr; group += 8) {
    const float* rows8 = src + group * ld;
    for (int64_t k = 0; k < kv; k += 8) {
      __m256 r[8];
      for (int64_t i = 0; i < 8; ++i) {
        r[i] = _mm256_loadu_ps(rows8 + i * ld + k);
      }
      Transpose8x8(r);
      for (int64_t t = 0; t < 8; ++t) {
        _mm256_storeu_ps(out + (k + t) * kGemmNr + group, r[t]);
      }
    }
  }
  for (int64_t k = kv; k < kc; ++k) {
    for (int64_t row = 0; row < kGemmNr; ++row) {
      out[k * kGemmNr + row] = src[row * ld + k];
    }
  }
  _mm256_zeroupper();
}

}  // namespace simd_avx2
}  // namespace lpsgd
#endif  // defined(__x86_64__)
