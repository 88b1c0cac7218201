// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// AVX2 kernels for the QSGD bucket quantize/dequantize hot loops. Structure
// shared by every vector codec kernel: run the scalar golden helper for the
// ragged head until the bit stream reaches a word boundary, then process
// whole words through a stack tile (quantize 4 lanes at a time into staged
// fields, bulk pack/unpack via PackFieldWords/UnpackFieldWords through the
// writer/reader cursor), and finish the tail with the scalar helper again.
// Wire bytes are bit-identical to the scalar table by construction.
#include "quant/simd_kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>

namespace lpsgd {
namespace quant_simd {
namespace avx2 {
namespace {

#include "quant/simd_avx2_common.inc"

// Whole words staged per tile; 64 words * up to 16 fields = 4 KiB on stack.
constexpr int64_t kTileWords = 64;

}  // namespace

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void QsgdQuantizeSm(const QuantizeArgs& args) {
  BitWriter* writer = args.writer;
  const double s = static_cast<double>(args.level_count);
  const int64_t n = args.end - args.begin;
  int64_t i = 0;
  while (i < n && !writer->AtWordBoundary()) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + i));
    writer->Put(QsgdFieldSm(args.values[i], args.scale, s, args.level_count,
                            args.bits, u));
    ++i;
  }
  const int per_word = 32 / args.bits;
  int64_t words_left = (n - i) / per_word;
  if (words_left > 0) {
    uint32_t* out_words = writer->cursor();
    writer->SkipWords(words_left);
    uint32_t fields[kTileWords * 16];
    while (words_left > 0) {
      const int64_t tile_words = std::min(words_left, kTileWords);
      const int64_t count = tile_words * per_word;
      int64_t t = 0;
      for (; t + 4 <= count; t += 4) {
        const __m256d u = Uniform4At(args.stream_seed, args.begin + i + t);
        const __m256d dg = _mm256_cvtps_pd(_mm_loadu_ps(args.values + i + t));
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(fields + t),
            QuantizeSm4(dg, args.scale, s, args.level_count, args.bits, u));
      }
      for (; t < count; ++t) {
        const double u = StreamUniform(
            args.stream_seed, static_cast<uint64_t>(args.begin + i + t));
        fields[t] = QsgdFieldSm(args.values[i + t], args.scale, s,
                                args.level_count, args.bits, u);
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
    writer->Put(QsgdFieldSm(args.values[i], args.scale, s, args.level_count,
                            args.bits, u));
  }
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void QsgdQuantizeSym(const QuantizeArgs& args) {
  BitWriter* writer = args.writer;
  const double s = static_cast<double>(args.level_count);
  const double two_scale = 2.0 * args.scale;
  const int64_t n = args.end - args.begin;
  int64_t i = 0;
  while (i < n && !writer->AtWordBoundary()) {
    const double u =
        StreamUniform(args.stream_seed, static_cast<uint64_t>(args.begin + i));
    writer->Put(
        QsgdFieldSym(args.values[i], args.scale, s, args.level_count, u));
    ++i;
  }
  const int per_word = 32 / args.bits;
  int64_t words_left = (n - i) / per_word;
  if (words_left > 0) {
    uint32_t* out_words = writer->cursor();
    writer->SkipWords(words_left);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d scale_v = _mm256_set1_pd(args.scale);
    const __m256d two_scale_v = _mm256_set1_pd(two_scale);
    const __m256d s_v = _mm256_set1_pd(s);
    const __m128i lc = _mm_set1_epi32(static_cast<int>(args.level_count));
    uint32_t fields[kTileWords * 16];
    while (words_left > 0) {
      const int64_t tile_words = std::min(words_left, kTileWords);
      const int64_t count = tile_words * per_word;
      int64_t t = 0;
      for (; t + 4 <= count; t += 4) {
        const __m256d u = Uniform4At(args.stream_seed, args.begin + i + t);
        const __m256d dg = _mm256_cvtps_pd(_mm_loadu_ps(args.values + i + t));
        // std::clamp((g + scale) / (2*scale), 0, 1): select-form clamp.
        __m256d a =
            _mm256_div_pd(_mm256_add_pd(dg, scale_v), two_scale_v);
        a = _mm256_blendv_pd(a, zero, _mm256_cmp_pd(a, zero, _CMP_LT_OQ));
        a = _mm256_blendv_pd(a, one, _mm256_cmp_pd(one, a, _CMP_LT_OQ));
        const __m128i level =
            StochasticLevel4(_mm256_mul_pd(a, s_v), u, lc);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(fields + t), level);
      }
      for (; t < count; ++t) {
        const double u = StreamUniform(
            args.stream_seed, static_cast<uint64_t>(args.begin + i + t));
        fields[t] = QsgdFieldSym(args.values[i + t], args.scale, s,
                                 args.level_count, u);
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
    writer->Put(
        QsgdFieldSym(args.values[i], args.scale, s, args.level_count, u));
  }
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void DequantizeSm(const DequantizeArgs& args) {
  BitReader* reader = args.reader;
  const int64_t n = args.end - args.begin;
  int64_t i = 0;
  while (i < n && !reader->AtWordBoundary()) {
    args.out[i] = quant_simd::DequantizeSm(reader->Next(), args.magnitudes,
                                           args.scale, args.bits,
                                           args.magnitude_mask);
    ++i;
  }
  const int per_word = 32 / args.bits;
  int64_t words_left = (n - i) / per_word;
  if (words_left > 0) {
    const uint32_t* in_words = reader->cursor();
    reader->SkipWords(words_left);
    const __m256d scale_v = _mm256_set1_pd(args.scale);
    const __m128i mask = _mm_set1_epi32(static_cast<int>(args.magnitude_mask));
    const int sign_shift = args.bits - 1;
    uint32_t fields[kTileWords * 16];
    while (words_left > 0) {
      const int64_t tile_words = std::min(words_left, kTileWords);
      const int64_t count = tile_words * per_word;
      UnpackFieldWords(in_words, tile_words, per_word, args.bits, fields);
      int64_t t = 0;
      for (; t + 4 <= count; t += 4) {
        const __m128i field =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(fields + t));
        _mm_storeu_ps(
            args.out + i + t,
            DequantizeSm4(field, args.magnitudes, scale_v, sign_shift, mask));
      }
      for (; t < count; ++t) {
        args.out[i + t] =
            quant_simd::DequantizeSm(fields[t], args.magnitudes, args.scale,
                                     args.bits, args.magnitude_mask);
      }
      in_words += tile_words;
      i += count;
      words_left -= tile_words;
    }
  }
  for (; i < n; ++i) {
    args.out[i] = quant_simd::DequantizeSm(reader->Next(), args.magnitudes,
                                           args.scale, args.bits,
                                           args.magnitude_mask);
  }
}

LPSGD_SIMD_TARGET_AVX2
LPSGD_HOT_PATH
void DequantizeSym(const DequantizeArgs& args) {
  BitReader* reader = args.reader;
  const double two_scale = 2.0 * args.scale;
  const int64_t n = args.end - args.begin;
  int64_t i = 0;
  while (i < n && !reader->AtWordBoundary()) {
    args.out[i] = quant_simd::DequantizeSym(reader->Next(), args.scale,
                                            two_scale, args.s);
    ++i;
  }
  const int per_word = 32 / args.bits;
  int64_t words_left = (n - i) / per_word;
  if (words_left > 0) {
    const uint32_t* in_words = reader->cursor();
    reader->SkipWords(words_left);
    const __m256d neg_scale_v = _mm256_set1_pd(-args.scale);
    const __m256d two_scale_v = _mm256_set1_pd(two_scale);
    const __m256d s_v = _mm256_set1_pd(args.s);
    uint32_t fields[kTileWords * 16];
    while (words_left > 0) {
      const int64_t tile_words = std::min(words_left, kTileWords);
      const int64_t count = tile_words * per_word;
      UnpackFieldWords(in_words, tile_words, per_word, args.bits, fields);
      int64_t t = 0;
      for (; t + 4 <= count; t += 4) {
        const __m128i field =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(fields + t));
        // -scale + two_scale * field / s, in scalar evaluation order.
        const __m256d v = _mm256_add_pd(
            neg_scale_v,
            _mm256_div_pd(
                _mm256_mul_pd(two_scale_v, _mm256_cvtepi32_pd(field)), s_v));
        _mm_storeu_ps(args.out + i + t, _mm256_cvtpd_ps(v));
      }
      for (; t < count; ++t) {
        args.out[i + t] = quant_simd::DequantizeSym(fields[t], args.scale,
                                                    two_scale, args.s);
      }
      in_words += tile_words;
      i += count;
      words_left -= tile_words;
    }
  }
  for (; i < n; ++i) {
    args.out[i] = quant_simd::DequantizeSym(reader->Next(), args.scale,
                                            two_scale, args.s);
  }
}

}  // namespace avx2
}  // namespace quant_simd
}  // namespace lpsgd

#endif  // defined(__x86_64__)
