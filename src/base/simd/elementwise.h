// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_BASE_SIMD_ELEMENTWISE_H_
#define LPSGD_BASE_SIMD_ELEMENTWISE_H_

#include <cstdint>

#include "base/simd/simd.h"

namespace lpsgd {

// Elementwise float kernels shared by the codecs (bucket norms, corrected
// staging, magnitude scans) and the aggregators (fp32 sum paths), plus the
// wire checksum. Every entry is bit-exact across ISAs: the operations are
// lane-independent IEEE arithmetic (or, for max_abs_f32, an
// associative-and-commutative fold), so any vector width produces the bytes
// the scalar reference produces; crc32c is one fixed function of its bytes.
//
// Order-sensitive reductions (the L2 norms' sequential double sums, the
// 1bitSGD chunk averages) are deliberately NOT here: reassociating them
// changes rounding, so they stay scalar in every dispatch mode.
struct ElementwiseKernels {
  // max_i |x[i]| as a double; 0.0 for n == 0. NaNs are dropped exactly the
  // way the scalar std::max fold drops them.
  double (*max_abs_f32)(const float* x, int64_t n);
  // out[i] = a[i] + b[i]
  void (*add_f32)(const float* a, const float* b, float* out, int64_t n);
  // acc[i] += x[i]
  void (*add_assign_f32)(float* acc, const float* x, int64_t n);
  // acc[i] += double(x[i]) — the full-precision aggregate's widened sum
  void (*accumulate_f64)(double* acc, const float* x, int64_t n);
  // out[i] = float(acc[i]) — the widened sum's rounding back to fp32
  void (*store_f64_as_f32)(const double* acc, float* out, int64_t n);
  // CRC-32C (Castagnoli: reflected polynomial 0x82F63B78, init and final
  // xor 0xFFFFFFFF) of bytes[0, n) — the codecs' wire integrity word.
  uint32_t (*crc32c)(const uint8_t* bytes, int64_t n);
};

// Kernel table for `isa`; unsupported or not-compiled-in ISAs resolve to
// the scalar table, so callers never need their own fallback logic.
const ElementwiseKernels& ElementwiseKernelsForIsa(SimdIsa isa);

inline const ElementwiseKernels& ActiveElementwiseKernels() {
  return ElementwiseKernelsForIsa(ActiveSimdIsa());
}

// The always-compiled scalar golden reference (also the tail/head path the
// vector kernels fall back to, so SIMD results match by construction).
namespace simd_scalar {
double MaxAbsF32(const float* x, int64_t n);
void AddF32(const float* a, const float* b, float* out, int64_t n);
void AddAssignF32(float* acc, const float* x, int64_t n);
void AccumulateF64(double* acc, const float* x, int64_t n);
void StoreF64AsF32(const double* acc, float* out, int64_t n);
uint32_t Crc32c(const uint8_t* bytes, int64_t n);
}  // namespace simd_scalar

// Vector variants, defined in elementwise_simd.cc (only *_simd.cc TUs may
// include intrinsics headers — see tools/lint).
#if defined(__x86_64__)
namespace simd_avx2 {
double MaxAbsF32(const float* x, int64_t n);
void AddF32(const float* a, const float* b, float* out, int64_t n);
void AddAssignF32(float* acc, const float* x, int64_t n);
void AccumulateF64(double* acc, const float* x, int64_t n);
void StoreF64AsF32(const double* acc, float* out, int64_t n);
uint32_t Crc32c(const uint8_t* bytes, int64_t n);  // SSE4.2 crc32
}  // namespace simd_avx2
#endif
#if defined(__aarch64__)
namespace simd_neon {
double MaxAbsF32(const float* x, int64_t n);
void AddF32(const float* a, const float* b, float* out, int64_t n);
void AddAssignF32(float* acc, const float* x, int64_t n);
void AccumulateF64(double* acc, const float* x, int64_t n);
void StoreF64AsF32(const double* acc, float* out, int64_t n);
}  // namespace simd_neon
#endif

}  // namespace lpsgd

#endif  // LPSGD_BASE_SIMD_ELEMENTWISE_H_
