// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// AVX2 kernel for the NUQSGD exponential-grid quantize hot loop. The level
// index j = clamp(frexp_exponent(a) - 1 + s, 0, s - 1) is recovered from
// the raw biased exponent of the double: for normal a, frexp's exponent
// minus one equals biased - 1023, and for subnormal or zero a the biased
// exponent 0 clamps to j = 0 exactly like the scalar path (at j = 0 the
// interpolation p is <= 0, so u < p never fires and level stays 0,
// matching the scalar a > 0 guard).
#include "quant/simd_kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>

namespace lpsgd {
namespace quant_simd {
namespace avx2 {
namespace {

#include "quant/simd_avx2_common.inc"

constexpr int64_t kTileWords = 64;

}  // namespace

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void NuqQuantize(const QuantizeArgs& args) {
  BitWriter* writer = args.writer;
  const int s_int = static_cast<int>(args.level_count);
  const int64_t n = args.end - args.begin;
  int64_t i = 0;
  while (i < n && !writer->AtWordBoundary()) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + i));
    writer->Put(NuqField(args.values[i], args.scale, args.magnitudes, s_int,
                         args.bits, u));
    ++i;
  }
  const int per_word = 32 / args.bits;
  int64_t words_left = (n - i) / per_word;
  if (words_left > 0) {
    uint32_t* out_words = writer->cursor();
    writer->SkipWords(words_left);
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d scale_v = _mm256_set1_pd(args.scale);
    const __m128i zero32 = _mm_setzero_si128();
    const __m128i one32 = _mm_set1_epi32(1);
    const __m128i exp_bias = _mm_set1_epi32(s_int - 1023);
    const __m128i j_max = _mm_set1_epi32(s_int - 1);
    const __m128i sign_bit = _mm_set1_epi32(1 << (args.bits - 1));
    uint32_t fields[kTileWords * 16];
    while (words_left > 0) {
      const int64_t tile_words = std::min(words_left, kTileWords);
      const int64_t count = tile_words * per_word;
      int64_t t = 0;
      for (; t + 4 <= count; t += 4) {
        const __m256d u = Uniform4At(args.stream_seed, args.begin + i + t);
        const __m256d dg = _mm256_cvtps_pd(_mm_loadu_ps(args.values + i + t));
        __m256d a = _mm256_div_pd(_mm256_and_pd(dg, abs_mask), scale_v);
        a = _mm256_blendv_pd(one, a, _mm256_cmp_pd(a, one, _CMP_LT_OQ));
        const __m128i biased = Low32Of64(_mm256_and_si256(
            _mm256_srli_epi64(_mm256_castpd_si256(a), 52),
            _mm256_set1_epi64x(0x7ff)));
        __m128i j = _mm_add_epi32(biased, exp_bias);
        j = _mm_max_epi32(j, zero32);
        j = _mm_min_epi32(j, j_max);
        const __m256d lo = Gather4(args.magnitudes, j);
        const __m256d hi =
            Gather4(args.magnitudes, _mm_add_epi32(j, one32));
        const __m256d p =
            _mm256_div_pd(_mm256_sub_pd(a, lo), _mm256_sub_pd(hi, lo));
        const __m128i bump = Low32Of64(
            _mm256_castpd_si256(_mm256_cmp_pd(u, p, _CMP_LT_OQ)));
        const __m128i level = _mm_sub_epi32(j, bump);  // bump is 0 or -1
        const __m128i sign32 = Low32Of64(
            _mm256_castpd_si256(_mm256_cmp_pd(dg, zero, _CMP_LT_OQ)));
        const __m128i field =
            _mm_or_si128(level, _mm_and_si128(sign32, sign_bit));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(fields + t), field);
      }
      for (; t < count; ++t) {
        const double u = StreamUniform(
            args.stream_seed, static_cast<uint64_t>(args.begin + i + t));
        fields[t] = NuqField(args.values[i + t], args.scale, args.magnitudes,
                             s_int, args.bits, u);
      }
      PackFieldWords(fields, tile_words, per_word, args.bits, out_words);
      out_words += tile_words;
      i += count;
      words_left -= tile_words;
    }
  }
  for (; i < n; ++i) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + i));
    writer->Put(NuqField(args.values[i], args.scale, args.magnitudes, s_int,
                         args.bits, u));
  }
}

}  // namespace avx2
}  // namespace quant_simd
}  // namespace lpsgd

#endif  // defined(__x86_64__)
