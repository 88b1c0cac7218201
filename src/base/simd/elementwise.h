// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_BASE_SIMD_ELEMENTWISE_H_
#define LPSGD_BASE_SIMD_ELEMENTWISE_H_

#include <cstdint>

#include "base/simd/simd.h"

namespace lpsgd {

// Elementwise float kernels shared by the codecs (bucket norms, corrected
// staging, magnitude scans) and the aggregators (fp32 sum paths), the wire
// checksum, and the layers' tanh and sigmoid. Every entry is bit-exact across
// ISAs. Most are lane-independent IEEE arithmetic (or, for max_abs_f32, an
// associative-and-commutative fold), so any vector width produces the bytes
// the scalar reference produces; crc32c is one fixed function of its bytes.
//
// tanh_f32 and sigmoid_f32 are the exception: their scalar references call
// libm (std::tanh, std::exp), so a vector variant is exact only by equalling
// libm, not by doing the same IEEE operations as the reference:
//  - AVX2 tanh_f32 is an operation-for-operation copy of fdlibm's tanhf and
//    expm1f (the float code glibc ships), every branch taken per lane with
//    blends. It equals only an fdlibm-based libm, so the AVX2 table installs
//    it after a one-time probe has matched std::tanh bit for bit on a fixed
//    input list that covers every fdlibm branch and includes inputs where
//    fdlibm and a correctly rounded tanhf disagree; otherwise the slot stays
//    scalar.
//  - AVX2 sigmoid_f32 computes exp(-x) in double (error near 2^-50) and
//    rounds it to float. A lane whose result, widened by 2^-30 relative
//    either way, rounds to two different floats calls std::exp instead, as
//    do |x| >= 87 and NaN. Every other lane equals libm: glibc's expf is
//    within 1.69 * 2^-34 relative before its own rounding to float, so its
//    result lies inside the window and rounds to the same float. About 2% of
//    lanes fall back on N(0, 2) inputs.
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
  // out[i] = std::tanh(x[i]); x == out is allowed.
  void (*tanh_f32)(const float* x, float* out, int64_t n);
  // out[i] = 1 / (1 + std::exp(-x[i])) in float; x == out is allowed.
  void (*sigmoid_f32)(const float* x, float* out, int64_t n);
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
void TanhF32(const float* x, float* out, int64_t n);
void SigmoidF32(const float* x, float* out, int64_t n);
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
// The fdlibm copy: equals std::tanh only where libm's tanhf is fdlibm's, so
// ElementwiseKernelsForIsa installs it after its probe.
void TanhF32(const float* x, float* out, int64_t n);
void SigmoidF32(const float* x, float* out, int64_t n);
}  // namespace simd_avx2
#endif

}  // namespace lpsgd

#endif  // LPSGD_BASE_SIMD_ELEMENTWISE_H_
