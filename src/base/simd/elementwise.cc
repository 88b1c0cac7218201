// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "base/simd/elementwise.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

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

LPSGD_HOT_PATH
void TanhF32(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

LPSGD_HOT_PATH
void SigmoidF32(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

}  // namespace simd_scalar

#if defined(__x86_64__)
namespace {

// Inputs, as float bits, on which the AVX2 tanh must equal std::tanh before
// it is installed: every fdlibm tanhf/expm1f branch (zero, subnormal, the
// |x| < 2^-55 and 2^-25 shortcuts, expm1's k = 0, the +-1.5 ln2 reduction,
// k = -3..-1 and k in [3, 23), [23, 56] and > 56, |x| >= 22, +-inf, NaN)
// with the edges between them, and inputs where fdlibm and a correctly
// rounded tanhf differ by an ulp (marked *). 32 entries: four full AVX2
// vectors. volatile keeps the compiler from folding std::tanh of these
// constants at build time: GCC folds with a correctly rounded tanhf, not
// with this libm.
const volatile uint32_t kTanhProbeBits[] = {
    0x00000000, 0x80000001, 0x23ffffff, 0x24000000,  //
    0x33000001, 0xba800003, 0x3e000000, 0xbe317001,  // * * * *
    0x3e317218, 0xbe800002, 0x3f000001, 0xbf051001,  //   * * *
    0x3f051592, 0xbf400003, 0x3f700001, 0xbf7fffff,  //   * *
    0x3f800000, 0xbf800009, 0x40000009, 0xc08003a3,  //   * * *
    0xc0f00000, 0x41000000, 0x4115b844, 0xc19b3333,
    0x419e6666, 0xc1afffff, 0x41b00000, 0xc2c80000,
    0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001,
};

// True when the AVX2 fdlibm copy reproduces this process's libm tanhf on
// the probe list; run once, and only on a host that can execute AVX2.
bool Avx2TanhMatchesLibm() {
  constexpr int64_t kCount = std::size(kTanhProbeBits);
  float x[kCount], vec[kCount], ref[kCount];
  for (int64_t i = 0; i < kCount; ++i) {
    const uint32_t bits = kTanhProbeBits[i];
    std::memcpy(&x[i], &bits, sizeof(bits));
  }
  simd_avx2::TanhF32(x, vec, kCount);
  simd_scalar::TanhF32(x, ref, kCount);
  return std::memcmp(vec, ref, sizeof(vec)) == 0;
}

}  // namespace
#endif

const ElementwiseKernels& ElementwiseKernelsForIsa(SimdIsa isa) {
  static const ElementwiseKernels scalar = {
      simd_scalar::MaxAbsF32,    simd_scalar::AddF32,
      simd_scalar::AddAssignF32, simd_scalar::AccumulateF64,
      simd_scalar::StoreF64AsF32, simd_scalar::Crc32c,
      simd_scalar::TanhF32,      simd_scalar::SigmoidF32,
  };
#if defined(__x86_64__)
  if (isa == SimdIsa::kAvx2 && SimdIsaSupported(SimdIsa::kAvx2)) {
    static const ElementwiseKernels avx2 = {
        simd_avx2::MaxAbsF32,     simd_avx2::AddF32,
        simd_avx2::AddAssignF32,  simd_avx2::AccumulateF64,
        simd_avx2::StoreF64AsF32, simd_avx2::Crc32c,
        Avx2TanhMatchesLibm() ? simd_avx2::TanhF32 : simd_scalar::TanhF32,
        simd_avx2::SigmoidF32,
    };
    return avx2;
  }
#endif
  (void)isa;
  return scalar;
}

}  // namespace lpsgd
