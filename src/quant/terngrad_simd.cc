// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// AVX2 kernels for the TernGrad ternarize hot loops. Encode follows the
// clip'ed-magnitude Bernoulli draw of Equation 3; decode expands 2-bit
// fields to {-scale, -0, +0, +scale} with the sign applied as a bit flip
// so -0.0f round-trips exactly like the scalar path.
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
void TernGradQuantize(const QuantizeArgs& args) {
  BitWriter* writer = args.writer;
  const int64_t n = args.end - args.begin;
  int64_t i = 0;
  while (i < n && !writer->AtWordBoundary()) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + i));
    writer->Put(TernGradField(args.values[i], args.scale, args.threshold, u));
    ++i;
  }
  const int per_word = 32 / args.bits;  // 16 fields of 2 bits
  int64_t words_left = (n - i) / per_word;
  if (words_left > 0) {
    uint32_t* out_words = writer->cursor();
    writer->SkipWords(words_left);
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d zero = _mm256_setzero_pd();
    const __m256d scale_v = _mm256_set1_pd(args.scale);
    const __m256d threshold_v = _mm256_set1_pd(args.threshold);
    const __m128i one32 = _mm_set1_epi32(1);
    uint32_t fields[kTileWords * 16];
    while (words_left > 0) {
      const int64_t tile_words = std::min(words_left, kTileWords);
      const int64_t count = tile_words * per_word;
      int64_t t = 0;
      for (; t + 4 <= count; t += 4) {
        const __m256d u = Uniform4At(args.stream_seed, args.begin + i + t);
        const __m256d dg = _mm256_cvtps_pd(_mm_loadu_ps(args.values + i + t));
        const __m256d ag = _mm256_and_pd(dg, abs_mask);
        // std::min(|g|, threshold) == (threshold < |g|) ? threshold : |g|.
        const __m256d clipped = _mm256_blendv_pd(
            ag, threshold_v, _mm256_cmp_pd(threshold_v, ag, _CMP_LT_OQ));
        const __m256d a = _mm256_div_pd(clipped, scale_v);
        const __m128i magnitude = _mm_and_si128(
            Low32Of64(_mm256_castpd_si256(_mm256_cmp_pd(u, a, _CMP_LT_OQ))),
            one32);
        const __m128i sign = _mm_and_si128(
            Low32Of64(_mm256_castpd_si256(_mm256_cmp_pd(dg, zero, _CMP_LT_OQ))),
            one32);
        const __m128i field =
            _mm_or_si128(_mm_slli_epi32(sign, 1), magnitude);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(fields + t), field);
      }
      for (; t < count; ++t) {
        const double u = StreamUniform(
            args.stream_seed, static_cast<uint64_t>(args.begin + i + t));
        fields[t] =
            TernGradField(args.values[i + t], args.scale, args.threshold, u);
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
    writer->Put(TernGradField(args.values[i], args.scale, args.threshold, u));
  }
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void TernGradDequantize(const DequantizeArgs& args) {
  BitReader* reader = args.reader;
  const float scale = static_cast<float>(args.scale);
  const int64_t n = args.end - args.begin;
  int64_t i = 0;
  while (i < n && !reader->AtWordBoundary()) {
    args.out[i] = TernGradValue(reader->Next(), scale);
    ++i;
  }
  const int per_word = 32 / args.bits;
  int64_t words_left = (n - i) / per_word;
  if (words_left > 0) {
    const uint32_t* in_words = reader->cursor();
    reader->SkipWords(words_left);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i sign_bit = _mm256_set1_epi32(
        static_cast<int>(0x80000000u));
    const __m256 scale_v = _mm256_set1_ps(scale);
    uint32_t fields[kTileWords * 16];
    while (words_left > 0) {
      const int64_t tile_words = std::min(words_left, kTileWords);
      const int64_t count = tile_words * per_word;
      UnpackFieldWords(in_words, tile_words, per_word, args.bits, fields);
      int64_t t = 0;
      for (; t + 8 <= count; t += 8) {
        const __m256i f = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(fields + t));
        const __m256i mag_mask =
            _mm256_cmpeq_epi32(_mm256_and_si256(f, one), one);
        const __m256 magnitude =
            _mm256_and_ps(_mm256_castsi256_ps(mag_mask), scale_v);
        const __m256i neg_mask = _mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_srli_epi32(f, 1), one), one);
        const __m256 value = _mm256_xor_ps(
            magnitude,
            _mm256_castsi256_ps(_mm256_and_si256(neg_mask, sign_bit)));
        _mm256_storeu_ps(args.out + i + t, value);
      }
      for (; t < count; ++t) {
        args.out[i + t] = TernGradValue(fields[t], scale);
      }
      in_words += tile_words;
      i += count;
      words_left -= tile_words;
    }
  }
  for (; i < n; ++i) {
    args.out[i] = TernGradValue(reader->Next(), scale);
  }
}

}  // namespace avx2
}  // namespace quant_simd
}  // namespace lpsgd

#endif  // defined(__x86_64__)
