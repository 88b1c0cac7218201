// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Vector elementwise kernels. Every loop here must produce bytes identical
// to the simd_scalar reference: only lane-independent IEEE operations (and
// the order-insensitive max fold) are vectorized, selects mirror the scalar
// ternaries exactly (including their NaN behavior), and tails run the
// scalar loops. tanh and sigmoid equal libm instead (see elementwise.h):
// lanes they cannot vouch for run the scalar reference.
// tests/base/simd_test.cc asserts the equivalence.
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

LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH inline __m256 AsFloat(__m256i v) {
  return _mm256_castsi256_ps(v);
}
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH inline __m256i AsInt(__m256 v) {
  return _mm256_castps_si256(v);
}

// fdlibm's expm1f (glibc sysdeps/ieee754/flt-32/s_expm1f.c) operation for
// operation, without FMA, for the arguments fdlibm's tanhf passes it:
// a = 2|x| in [2, 44) and a = -2|x| in (-2, 0). Those never reach its
// overflow, -1 saturation or k = 1 branches. Every other branch runs in all
// lanes and blends keep each lane's own.
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH inline __m256 Expm1ForTanh(__m256 a) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256i abs_bits =
      _mm256_and_si256(AsInt(a), _mm256_set1_epi32(0x7fffffff));
  const __m256 negative = _mm256_cmp_ps(a, _mm256_setzero_ps(), _CMP_LT_OQ);
  // |a| > 0.5 ln2 reduces a to k ln2 + x + c; below it k = 0. fdlibm
  // takes k = +-1 for |a| < 1.5 ln2, else k = (int)(a / ln2 +- 0.5).
  const __m256i reduce =
      _mm256_cmpgt_epi32(abs_bits, _mm256_set1_epi32(0x3eb17218));
  const __m256i near =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f851592), abs_bits);
  const __m256 half = _mm256_blendv_ps(_mm256_set1_ps(0.5f),
                                       _mm256_set1_ps(-0.5f), negative);
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(1.4426950216e+00f), a), half));
  k = _mm256_blendv_epi8(
      k,
      _mm256_blendv_epi8(_mm256_set1_epi32(1), _mm256_set1_epi32(-1),
                         AsInt(negative)),
      near);
  k = _mm256_and_si256(k, reduce);
  // With t = k the near branch's hi = a -+ ln2_hi, lo = +-ln2_lo are the
  // general branch's; at k = 0 they give x = a exactly.
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi =
      _mm256_sub_ps(a, _mm256_mul_ps(t, _mm256_set1_ps(6.9313812256e-01f)));
  const __m256 lo = _mm256_mul_ps(t, _mm256_set1_ps(9.0580006145e-06f));
  const __m256 x = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, x), lo);

  const __m256 hfx = _mm256_mul_ps(_mm256_set1_ps(0.5f), x);
  const __m256 hxs = _mm256_mul_ps(x, hfx);
  __m256 r1 = _mm256_mul_ps(hxs, _mm256_set1_ps(-2.0109921195e-07f));
  r1 = _mm256_mul_ps(hxs,
                     _mm256_add_ps(_mm256_set1_ps(4.0082177293e-06f), r1));
  r1 = _mm256_mul_ps(hxs,
                     _mm256_add_ps(_mm256_set1_ps(-7.9365076090e-05f), r1));
  r1 = _mm256_mul_ps(hxs,
                     _mm256_add_ps(_mm256_set1_ps(1.5873016091e-03f), r1));
  r1 = _mm256_mul_ps(hxs,
                     _mm256_add_ps(_mm256_set1_ps(-3.3333335072e-02f), r1));
  r1 = _mm256_add_ps(one, r1);
  const __m256 t3 =
      _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t3),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(x, t3))));
  // k == 0: x - (x*e - hxs).
  const __m256 result_k0 =
      _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
  e = _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c);
  e = _mm256_sub_ps(e, hxs);
  const __m256 e_minus_x = _mm256_sub_ps(e, x);
  const __m256i exponent_k = _mm256_slli_epi32(k, 23);
  // k == -1: 0.5*(x-e) - 0.5.
  const __m256 result_km1 = _mm256_sub_ps(
      _mm256_mul_ps(_mm256_set1_ps(0.5f), _mm256_sub_ps(x, e)),
      _mm256_set1_ps(0.5f));
  // k <= -2 or k > 56: y = 1-(e-x) scaled by 2^k, minus 1.
  const __m256 result_far = _mm256_sub_ps(
      AsFloat(_mm256_add_epi32(AsInt(_mm256_sub_ps(one, e_minus_x)),
                               exponent_k)),
      one);
  // 2 <= k < 23: y = (1 - 2^-k) - (e-x), scaled by 2^k.
  const __m256 one_minus_ulp = AsFloat(_mm256_sub_epi32(
      _mm256_set1_epi32(0x3f800000),
      _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 result_mid = AsFloat(_mm256_add_epi32(
      AsInt(_mm256_sub_ps(one_minus_ulp, e_minus_x)), exponent_k));
  // 23 <= k <= 56: y = (x - (e + 2^-k)) + 1, scaled by 2^k.
  const __m256 ulp = AsFloat(_mm256_slli_epi32(
      _mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 result_high = AsFloat(_mm256_add_epi32(
      AsInt(_mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, ulp)), one)),
      exponent_k));

  __m256 result = result_mid;
  result = _mm256_blendv_ps(
      result, result_high,
      AsFloat(_mm256_cmpgt_epi32(k, _mm256_set1_epi32(22))));
  result = _mm256_blendv_ps(
      result, result_far,
      AsFloat(_mm256_or_si256(
          _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)),
          _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k))));
  result = _mm256_blendv_ps(
      result, result_km1,
      AsFloat(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))));
  result = _mm256_blendv_ps(
      result, result_k0,
      AsFloat(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())));
  // |a| < 2^-25: fdlibm returns a itself.
  return _mm256_blendv_ps(
      result, a,
      AsFloat(_mm256_cmpgt_epi32(_mm256_set1_epi32(0x33000000), abs_bits)));
}

// 2^(j/32), j = 0..31, rounded to double.
alignas(32) constexpr double kExp2Table[32] = {
    0x1.0000000000000p+0, 0x1.059b0d3158574p+0, 0x1.0b5586cf9890fp+0,
    0x1.11301d0125b51p+0, 0x1.172b83c7d517bp+0, 0x1.1d4873168b9aap+0,
    0x1.2387a6e756238p+0, 0x1.29e9df51fdee1p+0, 0x1.306fe0a31b715p+0,
    0x1.371a7373aa9cbp+0, 0x1.3dea64c123422p+0, 0x1.44e086061892dp+0,
    0x1.4bfdad5362a27p+0, 0x1.5342b569d4f82p+0, 0x1.5ab07dd485429p+0,
    0x1.6247eb03a5585p+0, 0x1.6a09e667f3bcdp+0, 0x1.71f75e8ec5f74p+0,
    0x1.7a11473eb0187p+0, 0x1.82589994cce13p+0, 0x1.8ace5422aa0dbp+0,
    0x1.93737b0cdc5e5p+0, 0x1.9c49182a3f090p+0, 0x1.a5503b23e255dp+0,
    0x1.ae89f995ad3adp+0, 0x1.b7f76f2fb5e47p+0, 0x1.c199bdd85529cp+0,
    0x1.cb720dcef9069p+0, 0x1.d5818dcfba487p+0, 0x1.dfc97337b9b5fp+0,
    0x1.ea4afa2a490dap+0, 0x1.f50765b6e4540p+0,
};

// exp(y) for four float lanes, computed in double and rounded to float.
// Sets the bits of `*unsure` for lanes whose double result widened by
// 2^-30 relative either way rounds to two floats: only there can libm's
// expf (within 1.69 * 2^-34 before rounding) round differently. Lanes with
// |y| >= 87 or NaN hold garbage; the caller reruns them.
LPSGD_SIMD_TARGET_AVX2 LPSGD_HOT_PATH inline __m128 ExpToFloat(__m128 y,
                                                                int* unsure) {
  const __m256d yd = _mm256_cvtps_pd(y);
  // Cody-Waite: y = (k + r') ln2/32 with k = round(y 32/ln2); ln2/32's high
  // part has 32 significant bits, so k * hi is exact for |k| < 2^21. Adding
  // 1.5 * 2^52 rounds k to nearest-even and leaves it in the low mantissa
  // bits.
  const __m256d shift = _mm256_set1_pd(0x1.8p52);
  const __m256d shifted =
      _mm256_add_pd(_mm256_mul_pd(yd, _mm256_set1_pd(0x1.71547652b82fep+5)),
                    shift);
  const __m256d kd = _mm256_sub_pd(shifted, shift);
  const __m256i k = _mm256_castpd_si256(shifted);
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(yd, _mm256_mul_pd(kd, _mm256_set1_pd(0x1.62e42feep-6))),
      _mm256_mul_pd(kd, _mm256_set1_pd(0x1.a39ef35793c76p-38)));
  // exp(r) for |r| <= ln2/64: Taylor to degree 6, truncation below 2^-57.
  __m256d p = _mm256_set1_pd(1.0 / 720.0);
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0 / 120.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0 / 24.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0 / 6.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(0.5));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0));
  // 2^(k/32) = 2^(k >> 5) * table[k & 31]: (k & ~31) << 47 is k >> 5 in
  // the exponent field, added to the table entry's. The gather is the
  // masked form with every lane enabled: GCC 12's unmasked intrinsic trips
  // -Wmaybe-uninitialized.
  const __m256i low5 = _mm256_set1_epi64x(31);
  const __m256d table = _mm256_mask_i64gather_pd(
      _mm256_setzero_pd(), kExp2Table, _mm256_and_si256(k, low5),
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), sizeof(double));
  const __m256i scale = _mm256_slli_epi64(_mm256_andnot_si256(low5, k), 47);
  const __m256d e = _mm256_mul_pd(
      _mm256_castsi256_pd(
          _mm256_add_epi64(_mm256_castpd_si256(table), scale)),
      p);
  const __m128 below =
      _mm256_cvtpd_ps(_mm256_mul_pd(e, _mm256_set1_pd(1.0 - 0x1p-30)));
  const __m128 above =
      _mm256_cvtpd_ps(_mm256_mul_pd(e, _mm256_set1_pd(1.0 + 0x1p-30)));
  *unsure = _mm_movemask_ps(_mm_cmp_ps(below, above, _CMP_NEQ_UQ));
  return _mm256_cvtpd_ps(e);
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

// fdlibm's tanhf (glibc sysdeps/ieee754/flt-32/s_tanhf.c) per lane; its
// non-finite lanes rerun the scalar reference.
LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void TanhF32(const float* x, float* out, int64_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256i ix = _mm256_and_si256(AsInt(xv), abs_mask);
    const __m256 sign = AsFloat(_mm256_andnot_si256(abs_mask, AsInt(xv)));
    // |x| >= 1: z = 1 - 2/(expm1(2|x|) + 2); below: z = -t/(t + 2) with
    // t = expm1(-2|x|). Both are positive; the sign is x's.
    const __m256 big =
        AsFloat(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7fffff)));
    const __m256 two_abs = _mm256_mul_ps(two, AsFloat(ix));
    const __m256 t =
        Expm1ForTanh(_mm256_xor_ps(two_abs, _mm256_andnot_ps(big, sign_mask)));
    const __m256 t_plus_two = _mm256_add_ps(t, two);
    __m256 z = _mm256_blendv_ps(
        _mm256_div_ps(_mm256_xor_ps(t, sign_mask), t_plus_two),
        _mm256_sub_ps(one, _mm256_div_ps(two, t_plus_two)), big);
    // |x| >= 22: 1 - 1e-30, which is 1.
    z = _mm256_blendv_ps(
        z, one, AsFloat(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41afffff))));
    z = _mm256_or_ps(z, sign);
    // |x| < 2^-55, zeros included: x*(1 + x).
    z = _mm256_blendv_ps(
        z, _mm256_mul_ps(xv, _mm256_add_ps(one, xv)),
        AsFloat(_mm256_cmpgt_epi32(_mm256_set1_epi32(0x24000000), ix)));
    const int non_finite = _mm256_movemask_ps(
        AsFloat(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f7fffff))));
    _mm256_storeu_ps(out + i, z);
    if (non_finite != 0) {
      // From a copy of the inputs: out may alias x.
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, xv);
      for (int lane = 0; lane < 8; ++lane) {
        if ((non_finite >> lane) & 1) {
          simd_scalar::TanhF32(&lanes[lane], &out[i + lane], 1);
        }
      }
    }
  }
  simd_scalar::TanhF32(x + i, out + i, n - i);
}

// 1/(1 + e) in float lanes, e = exp(-x) from ExpToFloat. The lanes it
// cannot vouch for, and those with |x| >= 87 or NaN, rerun the scalar
// reference once per block of eight vectors, from a copy of the block's
// inputs (out may alias x): one loop over the block's set bits instead of a
// branch per vector.
LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void SigmoidF32(const float* x, float* out, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  alignas(32) float inputs[64];
  int64_t i = 0;
  while (i + 8 <= n) {
    const int64_t block = i;
    uint64_t rerun = 0;
    for (int64_t v = 0; v < 8 && i + 8 <= n; ++v, i += 8) {
      const __m256 xv = _mm256_loadu_ps(x + i);
      _mm256_store_ps(inputs + 8 * v, xv);
      const __m256 neg_x = _mm256_xor_ps(xv, sign_mask);
      int unsure_lo = 0;
      int unsure_hi = 0;
      const __m128 e_lo =
          ExpToFloat(_mm256_castps256_ps128(neg_x), &unsure_lo);
      const __m128 e_hi =
          ExpToFloat(_mm256_extractf128_ps(neg_x, 1), &unsure_hi);
      const __m256 e = _mm256_set_m128(e_hi, e_lo);
      const int out_of_range = _mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_andnot_ps(sign_mask, xv),
                        _mm256_set1_ps(87.0f), _CMP_NLT_UQ));
      rerun |= static_cast<uint64_t>(unsure_lo | (unsure_hi << 4) |
                                     out_of_range)
               << (8 * v);
      _mm256_storeu_ps(out + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
    }
    for (; rerun != 0; rerun &= rerun - 1) {
      const int lane = __builtin_ctzll(rerun);
      simd_scalar::SigmoidF32(&inputs[lane], &out[block + lane], 1);
    }
  }
  simd_scalar::SigmoidF32(x + i, out + i, n - i);
  // The same missed vzeroupper after vcvtpd2ps as in StoreF64AsF32.
  _mm256_zeroupper();
}

}  // namespace simd_avx2
}  // namespace lpsgd
#endif  // defined(__x86_64__)
