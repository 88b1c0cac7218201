// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "base/simd/elementwise.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/thread_annotations.h"

namespace lpsgd {
namespace simd_scalar {
namespace {

// Slicing-by-8 tables for the reflected CRC-32C polynomial: kCrc32cTables[0]
// is the classic byte-at-a-time table, and kCrc32cTables[k][b] advances the
// byte b through k more zero bytes, so one step folds 8 input bytes with 8
// independent lookups instead of a chain of 8.
constexpr uint32_t kCrc32cPolynomial = 0x82f63b78u;

constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrc32cTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPolynomial : 0u);
    }
    tables[0][b] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32cTables =
    MakeCrc32cTables();

// Little-endian 32-bit load; compiles to one unaligned load on x86-64 and
// aarch64.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

LPSGD_HOT_PATH
double MaxAbsF32(const float* x, int64_t n) {
  double value = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    value = std::max(value, std::abs(static_cast<double>(x[i])));
  }
  return value;
}

LPSGD_HOT_PATH
void AddF32(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

LPSGD_HOT_PATH
void AddAssignF32(float* acc, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] += x[i];
}

LPSGD_HOT_PATH
void AccumulateF64(double* acc, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] += static_cast<double>(x[i]);
}

LPSGD_HOT_PATH
void StoreF64AsF32(const double* acc, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]);
}

LPSGD_HOT_PATH
uint32_t Crc32c(const uint8_t* bytes, int64_t n) {
  const auto& t = kCrc32cTables;
  uint32_t crc = 0xffffffffu;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint32_t lo = crc ^ LoadLe32(bytes + i);
    const uint32_t hi = LoadLe32(bytes + i + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; i < n; ++i) crc = (crc >> 8) ^ t[0][(crc ^ bytes[i]) & 0xffu];
  return ~crc;
}

}  // namespace simd_scalar

const ElementwiseKernels& ElementwiseKernelsForIsa(SimdIsa isa) {
  static const ElementwiseKernels scalar = {
      simd_scalar::MaxAbsF32,    simd_scalar::AddF32,
      simd_scalar::AddAssignF32, simd_scalar::AccumulateF64,
      simd_scalar::StoreF64AsF32, simd_scalar::Crc32c,
  };
#if defined(__x86_64__)
  static const ElementwiseKernels avx2 = {
      simd_avx2::MaxAbsF32,    simd_avx2::AddF32,
      simd_avx2::AddAssignF32, simd_avx2::AccumulateF64,
      simd_avx2::StoreF64AsF32, simd_avx2::Crc32c,
  };
  if (isa == SimdIsa::kAvx2 && SimdIsaSupported(SimdIsa::kAvx2)) return avx2;
#endif
#if defined(__aarch64__)
  static const ElementwiseKernels neon = {
      simd_neon::MaxAbsF32,    simd_neon::AddF32,
      simd_neon::AddAssignF32, simd_neon::AccumulateF64,
      simd_neon::StoreF64AsF32,
      // No ARMv8 CRC path (__crc32cd) yet: slicing-by-8 on every aarch64.
      simd_scalar::Crc32c,
  };
  if (isa == SimdIsa::kNeon) return neon;
#endif
  (void)isa;
  return scalar;
}

}  // namespace lpsgd
