// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Runtime SIMD dispatch (base/simd): ISA naming/parsing, host detection,
// the scoped force helper, and bit-identity of the elementwise kernel
// tables against the scalar golden reference across odd lengths, plus the
// CRC-32C slot's known answers.
#include "base/simd/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/elementwise.h"

namespace lpsgd {
namespace {

TEST(SimdIsaTest, NamesRoundTripThroughParse) {
  for (const SimdIsa isa :
       {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
    const auto parsed = ParseSimdMode(SimdIsaName(isa));
    if (SimdIsaSupported(isa)) {
      ASSERT_TRUE(parsed.ok()) << SimdIsaName(isa);
      EXPECT_EQ(*parsed, isa);
    } else {
      // Named but unusable on this host: FailedPrecondition, so a CLI can
      // distinguish "typo" from "wrong machine".
      ASSERT_FALSE(parsed.ok()) << SimdIsaName(isa);
      EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
    }
  }
}

TEST(SimdIsaTest, AutoIsDetectionAndBadNamesAreInvalidArgument) {
  // The same parser backs --simd= and the LPSGD_SIMD env override.
  const auto auto_mode = ParseSimdMode("auto");
  ASSERT_TRUE(auto_mode.ok());
  EXPECT_EQ(*auto_mode, DetectSimdIsa());
  for (const char* bad : {"", "sse2", "avx512", "Scalar", "AUTO"}) {
    const auto parsed = ParseSimdMode(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(SimdIsaTest, ScalarIsAlwaysSupportedAndDetectionIsSupported) {
  EXPECT_TRUE(SimdIsaSupported(SimdIsa::kScalar));
  EXPECT_TRUE(SimdIsaSupported(DetectSimdIsa()));
#if defined(__x86_64__)
  EXPECT_FALSE(SimdIsaSupported(SimdIsa::kNeon));
#endif
#if defined(__aarch64__)
  EXPECT_TRUE(SimdIsaSupported(SimdIsa::kNeon));
  EXPECT_FALSE(SimdIsaSupported(SimdIsa::kAvx2));
#endif
}

TEST(SimdIsaTest, ScopedForceSwapsAndRestores) {
  const SimdIsa before = ActiveSimdIsa();
  {
    ScopedSimdIsa force(SimdIsa::kScalar);
    EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kScalar);
    {
      ScopedSimdIsa nested(SimdIsa::kAvx2);
      EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kAvx2);
    }
    EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kScalar);
  }
  EXPECT_EQ(ActiveSimdIsa(), before);
}

TEST(SimdIsaTest, SetSimdModeInstallsParsedMode) {
  const SimdIsa before = ActiveSimdIsa();
  ASSERT_TRUE(SetSimdMode("scalar").ok());
  EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kScalar);
  EXPECT_FALSE(SetSimdMode("bogus").ok());
  EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kScalar);  // failed set is a no-op
  ASSERT_TRUE(SetSimdMode("auto").ok());
  EXPECT_EQ(ActiveSimdIsa(), DetectSimdIsa());
  simd_internal::ExchangeActiveSimdIsa(before);
}

TEST(SimdIsaTest, UnsupportedForcedIsaResolvesToScalarKernels) {
  // Forcing an ISA the host lacks must fall back to the scalar table, not
  // crash — ScopedSimdIsa is allowed to install anything.
  const SimdIsa missing =
      SimdIsaSupported(SimdIsa::kAvx2) ? SimdIsa::kNeon : SimdIsa::kAvx2;
  ScopedSimdIsa force(missing);
  const ElementwiseKernels& forced = ActiveElementwiseKernels();
  ScopedSimdIsa scalar(SimdIsa::kScalar);
  EXPECT_EQ(&forced, &ActiveElementwiseKernels());
}

// --- Elementwise kernel bit-identity: every slot of every dispatchable
// table must match the scalar golden reference bit for bit, including odd
// lengths (scalar tails) and the empty span. -------------------------------

std::vector<float> TestVector(int64_t n, uint64_t seed) {
  std::vector<float> v(static_cast<size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  if (n > 0) v[0] = -0.0f;  // sign-of-zero must not change any kernel
  if (n > 3) v[3] = 0.0f;
  return v;
}

// Bitwise equality of two buffers. memcmp alone would be handed the null
// data() of an empty vector, which is undefined even for zero bytes.
template <typename T>
bool BitsEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

const int64_t kLengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                            31, 32, 33, 63, 64, 65, 100, 1000, 1025};

TEST(ElementwiseKernelsTest, AllIsasMatchScalarBitForBit) {
  for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
    const ElementwiseKernels& vec = ElementwiseKernelsForIsa(isa);
    const ElementwiseKernels& ref =
        ElementwiseKernelsForIsa(SimdIsa::kScalar);
    for (const int64_t n : kLengths) {
      SCOPED_TRACE(testing::Message() << SimdIsaName(isa) << " n=" << n);
      const std::vector<float> a = TestVector(n, 0x5eedULL);
      const std::vector<float> b = TestVector(n, 0xfeedULL);

      EXPECT_EQ(ref.max_abs_f32(a.data(), n), vec.max_abs_f32(a.data(), n));

      std::vector<float> out_ref(static_cast<size_t>(n)),
          out_vec(static_cast<size_t>(n));
      ref.add_f32(a.data(), b.data(), out_ref.data(), n);
      vec.add_f32(a.data(), b.data(), out_vec.data(), n);
      EXPECT_TRUE(BitsEqual(out_ref, out_vec));

      std::vector<float> acc_ref = a, acc_vec = a;
      ref.add_assign_f32(acc_ref.data(), b.data(), n);
      vec.add_assign_f32(acc_vec.data(), b.data(), n);
      EXPECT_TRUE(BitsEqual(acc_ref, acc_vec));

      std::vector<double> sum_ref(static_cast<size_t>(n), 0.25),
          sum_vec(static_cast<size_t>(n), 0.25);
      ref.accumulate_f64(sum_ref.data(), a.data(), n);
      vec.accumulate_f64(sum_vec.data(), a.data(), n);
      EXPECT_TRUE(BitsEqual(sum_ref, sum_vec));

      ref.store_f64_as_f32(sum_ref.data(), out_ref.data(), n);
      vec.store_f64_as_f32(sum_vec.data(), out_vec.data(), n);
      EXPECT_TRUE(BitsEqual(out_ref, out_vec));
    }
  }
}

// RFC 3720 (iSCSI) Appendix B.4 test vectors, plus the customary
// "123456789" check value, under every table (an ISA this host cannot run
// resolves to the scalar table, which must pass too).
TEST(ElementwiseKernelsTest, Crc32cMatchesRfc3720Vectors) {
  std::vector<uint8_t> ascending(32), descending(32);
  std::iota(ascending.begin(), ascending.end(), uint8_t{0});
  std::iota(descending.rbegin(), descending.rend(), uint8_t{0});
  const std::vector<uint8_t> read_pdu = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  const std::vector<uint8_t> digits = {'1', '2', '3', '4', '5',
                                       '6', '7', '8', '9'};
  const struct {
    const char* name;
    std::vector<uint8_t> bytes;
    uint32_t crc;
  } kVectors[] = {
      {"32 zeros", std::vector<uint8_t>(32, 0x00), 0x8a9136aau},
      {"32 ones", std::vector<uint8_t>(32, 0xff), 0x62a8ab43u},
      {"ascending", ascending, 0x46dd794eu},
      {"descending", descending, 0x113fdb5cu},
      {"iSCSI read PDU", read_pdu, 0xd9963a56u},
      {"123456789", digits, 0xe3069283u},
  };
  for (const SimdIsa isa :
       {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
    const ElementwiseKernels& k = ElementwiseKernelsForIsa(isa);
    for (const auto& v : kVectors) {
      EXPECT_EQ(k.crc32c(v.bytes.data(), static_cast<int64_t>(v.bytes.size())),
                v.crc)
          << SimdIsaName(isa) << " " << v.name;
    }
    EXPECT_EQ(k.crc32c(nullptr, 0), 0u) << SimdIsaName(isa);
  }
}

// Every length 0..257 at every start offset 0..7: the 8-byte body, the
// byte tail and unaligned starts all give the scalar reference's word.
TEST(ElementwiseKernelsTest, Crc32cAllIsasMatchScalarAtEveryOffset) {
  std::vector<uint8_t> buffer(8 + 257);
  Rng rng(0xc3c32ULL);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextUint64(256));
  const ElementwiseKernels& ref = ElementwiseKernelsForIsa(SimdIsa::kScalar);
  for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
    const ElementwiseKernels& vec = ElementwiseKernelsForIsa(isa);
    for (int64_t offset = 0; offset < 8; ++offset) {
      for (int64_t n = 0; n <= 257; ++n) {
        const uint8_t* bytes = buffer.data() + offset;
        ASSERT_EQ(vec.crc32c(bytes, n), ref.crc32c(bytes, n))
            << SimdIsaName(isa) << " offset=" << offset << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace lpsgd
