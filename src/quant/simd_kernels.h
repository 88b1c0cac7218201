// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Runtime-dispatched codec kernels: the fused bucket quantize/dequantize
// hot loops of the codec family, selectable per ISA (base/simd/simd.h).
//
// The contract every table entry must satisfy: for identical arguments,
// every ISA produces the identical wire bytes (through BitWriter) and
// decoded floats as the scalar reference — bit for bit. That holds
// because the per-element math is lane-independent IEEE arithmetic (div,
// mul, min/clamp selects, truncating casts) plus the counter-based hash,
// all of which are deterministic per element; the only order-sensitive
// pieces of the codecs (the sequential double L2 sums and the 1bitSGD chunk
// averages) are NOT kernel slots and stay scalar in every dispatch mode.
//
// The per-element helpers below are the single definition of the math: the
// scalar kernels are loops over them (moved verbatim from the codec TUs),
// and the vector kernels use them for their head/tail elements, so scalar
// and SIMD agree on the ragged edges by construction.
#ifndef LPSGD_QUANT_SIMD_KERNELS_H_
#define LPSGD_QUANT_SIMD_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "base/bit_packing.h"
#include "base/rng.h"
#include "base/simd/simd.h"
#include "base/thread_annotations.h"

namespace lpsgd {
namespace quant_simd {

// One bucket's worth of quantize work. `begin`/`end` are flat element
// indices: the stochastic-rounding stream is addressed by flat index, so a
// kernel invocation is position-dependent but history-free. `values`
// points at element `begin`: values[j] is element begin + j.
struct QuantizeArgs {
  const float* values = nullptr;  // end - begin inputs, from element begin
  int64_t begin = 0;              // [begin, end) flat range
  int64_t end = 0;
  double scale = 0.0;             // bucket scale; caller handles scale == 0
  uint64_t stream_seed = 0;       // CounterRng::stream_seed()
  int bits = 0;                   // wire field width
  uint32_t level_count = 0;       // s (magnitude levels / endpoints)
  BitWriter* writer = nullptr;    // positioned at the bucket's first field
  const double* magnitudes = nullptr;  // NUQSGD: exponential level table
  double threshold = 0.0;         // TernGrad clip threshold
};

// One bucket's worth of dequantize work. `out` points at element `begin`,
// like QuantizeArgs::values.
struct DequantizeArgs {
  BitReader* reader = nullptr;    // positioned at the bucket's first field
  int64_t begin = 0;
  int64_t end = 0;
  double scale = 0.0;
  int bits = 0;
  uint32_t magnitude_mask = 0;    // sign-magnitude: low-bits mask
  const double* magnitudes = nullptr;  // SM magnitude / NUQ level table
  double s = 0.0;                 // symmetric: level_count as double
  float* out = nullptr;           // end - begin outputs, from element begin
};

// ---------------------------------------------------------------------------
// Per-element golden helpers. Each computes exactly what the codec TU ran
// before kernel extraction (the 1bitSGD sign selects as bit-identical
// branch-free rewrites); do not "simplify" them — every select and cast is
// part of the pinned wire format.

// CounterRng::UniformAt for a pre-mixed stream seed.
LPSGD_HOT_PATH
inline double StreamUniform(uint64_t stream_seed, uint64_t index) {
  return static_cast<double>(HashCounter(stream_seed, index) >> 11) *
         0x1.0p-53;
}

// QSGD sign-magnitude field for one element (Equation 1 rounding).
LPSGD_HOT_PATH
inline uint32_t QsgdFieldSm(float g, double scale, double s,
                            uint32_t level_count, int bits, double u) {
  const double a = std::min(1.0, std::abs(static_cast<double>(g)) / scale);
  uint32_t level = static_cast<uint32_t>(a * s);
  const double frac = a * s - level;
  if (u < frac && level < level_count) ++level;
  if (level > level_count) level = level_count;
  const uint32_t sign = g < 0.0f ? 1u : 0u;
  return (sign << (bits - 1)) | level;
}

// QSGD symmetric-endpoint field over [-scale, +scale].
LPSGD_HOT_PATH
inline uint32_t QsgdFieldSym(float g, double scale, double s,
                             uint32_t level_count, double u) {
  const double a = std::clamp(
      (static_cast<double>(g) + scale) / (2.0 * scale), 0.0, 1.0);
  uint32_t level = static_cast<uint32_t>(a * s);
  const double frac = a * s - level;
  if (u < frac && level < level_count) ++level;
  if (level > level_count) level = level_count;
  return level;
}

// NUQSGD field on the exponential level grid (levels[j] = 2^(j - s)).
LPSGD_HOT_PATH
inline uint32_t NuqField(float g, double scale, const double* levels,
                         int s_int, int bits, double u) {
  const double a = std::min(1.0, std::abs(static_cast<double>(g)) / scale);
  uint32_t level = 0;
  if (a > 0.0) {
    int exponent = 0;
    (void)std::frexp(a, &exponent);
    const int j = std::clamp(exponent - 1 + s_int, 0, s_int - 1);
    const double lo = levels[j];
    const double hi = levels[j + 1];
    const double p = (a - lo) / (hi - lo);
    level = static_cast<uint32_t>(j);
    if (u < p) ++level;
  }
  const uint32_t sign = g < 0.0f ? 1u : 0u;
  return (sign << (bits - 1)) | level;
}

// TernGrad 2-bit field: sign bit + Bernoulli magnitude bit.
LPSGD_HOT_PATH
inline uint32_t TernGradField(float g, double scale, double threshold,
                              double u) {
  const double a =
      std::min(std::abs(static_cast<double>(g)), threshold) / scale;
  const uint32_t magnitude = u < a ? 1u : 0u;
  const uint32_t sign = g < 0.0f ? 1u : 0u;
  return (sign << 1) | magnitude;
}

// Sign-magnitude dequantize for one field (QSGD, ECQ, and — with the level
// table as `magnitudes` — NUQSGD).
LPSGD_HOT_PATH
inline float DequantizeSm(uint32_t field, const double* magnitudes,
                          double scale, int bits, uint32_t magnitude_mask) {
  const bool negative = (field >> (bits - 1)) & 1u;
  const double magnitude = magnitudes[field & magnitude_mask] * scale;
  return static_cast<float>(negative ? -magnitude : magnitude);
}

// Symmetric-endpoint dequantize for one field.
LPSGD_HOT_PATH
inline float DequantizeSym(uint32_t field, double scale, double two_scale,
                           double s) {
  return static_cast<float>(-scale + two_scale * field / s);
}

// TernGrad dequantize for one field.
LPSGD_HOT_PATH
inline float TernGradValue(uint32_t field, float scale) {
  const float magnitude = (field & 1u) ? scale : 0.0f;
  return (field >> 1) & 1u ? -magnitude : magnitude;
}

// One 1bitSGD* quantize step: OR the sign bit of `g`, flat element i, into
// the flat bitmap (Algorithm 2). `>= 0.0f` counts -0.0f positive and NaN
// negative. Branch-free: gradient signs are random, so a branch would
// mispredict half the time.
LPSGD_HOT_PATH
inline void OneBitStep(float g, int64_t i, uint32_t* bits) {
  bits[i >> 5] |= static_cast<uint32_t>(g >= 0.0f) << (i & 31);
}

// One 1bitSGD dequantized element: avg+ where bit i is set, avg- where it
// is clear. Indexes a two-entry table rather than branching on the bit.
LPSGD_HOT_PATH
inline float OneBitValue(const uint32_t* bits, int64_t i, float avg_pos,
                         float avg_neg) {
  const float averages[2] = {avg_neg, avg_pos};
  return averages[SignBitAt(bits, i)];
}

// Packs word_count * per_word staged fields into whole 32-bit words in the
// exact BitWriter::Put() layout (little-endian fields, top padding zero).
// The vector kernels quantize into a field tile and bulk-pack it here once
// the stream is word-aligned.
LPSGD_HOT_PATH
inline void PackFieldWords(const uint32_t* fields, int64_t word_count,
                           int per_word, int bits, uint32_t* words) {
  int64_t f = 0;
  for (int64_t w = 0; w < word_count; ++w) {
    uint32_t word = 0;
    int shift = 0;
    for (int j = 0; j < per_word; ++j) {
      word |= fields[f++] << shift;
      shift += bits;
    }
    words[w] = word;
  }
}

// Inverse of PackFieldWords: stages word_count whole words as individual
// fields for the vector dequantize tiles.
LPSGD_HOT_PATH
inline void UnpackFieldWords(const uint32_t* words, int64_t word_count,
                             int per_word, int bits, uint32_t* fields) {
  const uint32_t field_mask =
      bits < 32 ? (1u << bits) - 1u : 0xffffffffu;
  int64_t f = 0;
  for (int64_t w = 0; w < word_count; ++w) {
    const uint32_t word = words[w];
    int shift = 0;
    for (int j = 0; j < per_word; ++j) {
      fields[f++] = (word >> shift) & field_mask;
      shift += bits;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch table. Slots without a vector implementation on some ISA hold
// the scalar reference, so callers never branch on ISA themselves.
struct CodecKernels {
  void (*qsgd_quantize_sm)(const QuantizeArgs& args);
  void (*qsgd_quantize_sym)(const QuantizeArgs& args);
  // Shared by QSGD-SM (ECQ-SGD included) and NUQSGD decode (the table
  // differs).
  void (*dequantize_sm)(const DequantizeArgs& args);
  void (*dequantize_sym)(const DequantizeArgs& args);
  void (*nuq_quantize)(const QuantizeArgs& args);
  void (*terngrad_quantize)(const QuantizeArgs& args);
  void (*terngrad_dequantize)(const DequantizeArgs& args);
  // 1bitSGD* flat-bitmap quantize: OR the sign bits of elements
  // [begin, end) into `bits` (pre-zeroed; buckets may straddle words).
  // `grad` and `out` point at element `begin`; bit positions in `bits`
  // are flat element indices.
  void (*one_bit_quantize)(const float* grad, int64_t begin, int64_t end,
                           uint32_t* bits);
  void (*one_bit_dequantize)(const uint32_t* bits, int64_t begin,
                             int64_t end, float avg_pos, float avg_neg,
                             float* out);
};

// Kernel table for `isa`; unsupported or not-compiled-in ISAs resolve to
// the scalar table.
const CodecKernels& CodecKernelsForIsa(SimdIsa isa);

inline const CodecKernels& ActiveCodecKernels() {
  return CodecKernelsForIsa(ActiveSimdIsa());
}

// Vector kernel declarations, defined in the per-codec *_simd.cc TUs (the
// only quant TUs allowed to include intrinsics headers — see tools/lint).
#if defined(__x86_64__)
namespace avx2 {
void QsgdQuantizeSm(const QuantizeArgs& args);    // qsgd_simd.cc
void QsgdQuantizeSym(const QuantizeArgs& args);   // qsgd_simd.cc
void DequantizeSm(const DequantizeArgs& args);    // qsgd_simd.cc
void DequantizeSym(const DequantizeArgs& args);   // qsgd_simd.cc
void NuqQuantize(const QuantizeArgs& args);       // nuqsgd_simd.cc
void TernGradQuantize(const QuantizeArgs& args);  // terngrad_simd.cc
void TernGradDequantize(const DequantizeArgs& args);
void OneBitQuantize(const float* grad, int64_t begin, int64_t end,
                    uint32_t* bits);              // one_bit_simd.cc
void OneBitDequantize(const uint32_t* bits, int64_t begin, int64_t end,
                      float avg_pos, float avg_neg, float* out);
}  // namespace avx2
#endif

}  // namespace quant_simd
}  // namespace lpsgd

#endif  // LPSGD_QUANT_SIMD_KERNELS_H_
