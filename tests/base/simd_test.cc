// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Runtime SIMD dispatch (base/simd): ISA naming/parsing, host detection,
// the scoped force helper, and bit-identity of the elementwise kernel
// tables against the scalar golden reference across odd lengths, plus the
// CRC-32C slot's known answers.
#include "base/simd/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/elementwise.h"

namespace lpsgd {
namespace {

TEST(SimdIsaTest, NamesRoundTripThroughParse) {
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
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
  // "neon" is unknown, not merely unsupported: there are no NEON tables,
  // so aarch64 runs the scalar reference under "auto".
  for (const char* bad : {"", "sse2", "avx512", "Scalar", "AUTO", "neon"}) {
    const auto parsed = ParseSimdMode(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.status().message().find("auto, scalar, avx2"),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(SimdIsaTest, UnusableEnvOverrideWarnsAndFallsBackToDetection) {
  // LPSGD_SIMD is read once per process, so the resolver is driven with
  // the strings directly. A rejected value still must not abort the run.
  const std::string detected = SimdIsaName(DetectSimdIsa());
  for (const char* bad : {"neon", "scalr", "AVX2"}) {
    testing::internal::CaptureStderr();
    const SimdIsa resolved = simd_internal::ResolveSimdOverride(bad);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(resolved, DetectSimdIsa()) << bad;
    EXPECT_NE(log.find("LPSGD_SIMD=\"" + std::string(bad) + "\""),
              std::string::npos)
        << log;
    EXPECT_NE(log.find("using " + detected), std::string::npos) << log;
    EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1) << log;
  }
  // Unset, empty and usable values resolve without a word.
  testing::internal::CaptureStderr();
  EXPECT_EQ(simd_internal::ResolveSimdOverride(nullptr), DetectSimdIsa());
  EXPECT_EQ(simd_internal::ResolveSimdOverride(""), DetectSimdIsa());
  EXPECT_EQ(simd_internal::ResolveSimdOverride("auto"), DetectSimdIsa());
  EXPECT_EQ(simd_internal::ResolveSimdOverride("scalar"), SimdIsa::kScalar);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(SimdIsaTest, ScalarIsAlwaysSupportedAndDetectionIsSupported) {
  EXPECT_TRUE(SimdIsaSupported(SimdIsa::kScalar));
  EXPECT_TRUE(SimdIsaSupported(DetectSimdIsa()));
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
  // crash — ScopedSimdIsa is allowed to install anything. AVX2 is the only
  // ISA a host can lack.
  if (SimdIsaSupported(SimdIsa::kAvx2)) {
    GTEST_SKIP() << "every SimdIsa is supported on this host";
  }
  ScopedSimdIsa force(SimdIsa::kAvx2);
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
  for (const SimdIsa isa : {SimdIsa::kAvx2}) {
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
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
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
  for (const SimdIsa isa : {SimdIsa::kAvx2}) {
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

// --- tanh_f32 and sigmoid_f32: each table's slot equals the scalar libm
// loop bit for bit. --------------------------------------------------------

float FromBits(uint32_t bits) {
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

struct UnaryKernel {
  const char* name;
  void (*ElementwiseKernels::*slot)(const float*, float*, int64_t);
};

const UnaryKernel kUnaryKernels[] = {
    {"tanh_f32", &ElementwiseKernels::tanh_f32},
    {"sigmoid_f32", &ElementwiseKernels::sigmoid_f32},
};

// Runs `inputs` through the scalar and `isa` slot of `kernel`, out of place
// and in place, and returns how many outputs differ from the scalar bytes.
int64_t CountMismatches(const UnaryKernel& kernel, SimdIsa isa,
                        const std::vector<float>& inputs) {
  const auto ref = ElementwiseKernelsForIsa(SimdIsa::kScalar).*kernel.slot;
  const auto vec = ElementwiseKernelsForIsa(isa).*kernel.slot;
  const int64_t n = static_cast<int64_t>(inputs.size());
  std::vector<float> expected(inputs.size()), out(inputs.size());
  ref(inputs.data(), expected.data(), n);
  vec(inputs.data(), out.data(), n);
  std::vector<float> in_place = inputs;
  vec(in_place.data(), in_place.data(), n);
  int64_t mismatches = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const bool differs =
        std::memcmp(&out[i], &expected[i], sizeof(float)) != 0 ||
        std::memcmp(&in_place[i], &expected[i], sizeof(float)) != 0;
    if (differs && mismatches++ < 3) {
      uint32_t x_bits, got, want;
      std::memcpy(&x_bits, &inputs[i], sizeof(x_bits));
      std::memcpy(&got, &out[i], sizeof(got));
      std::memcpy(&want, &expected[i], sizeof(want));
      ADD_FAILURE() << kernel.name << " " << SimdIsaName(isa) << " x=0x"
                    << std::hex << x_bits << " got 0x" << got << " want 0x"
                    << want;
    }
  }
  return mismatches;
}

// About 10^6 float bit patterns spread over every exponent, both signs,
// subnormals, infinities and NaNs included (the stride is odd).
TEST(ElementwiseKernelsTest, TanhAndSigmoidMatchScalarOnStridedBitSweep) {
  std::vector<float> inputs;
  for (uint64_t bits = 0; bits <= 0xffffffffULL; bits += 4099) {
    inputs.push_back(FromBits(static_cast<uint32_t>(bits)));
  }
  for (const SimdIsa isa : {SimdIsa::kAvx2}) {
    for (const UnaryKernel& kernel : kUnaryKernels) {
      EXPECT_EQ(CountMismatches(kernel, isa, inputs), 0)
          << kernel.name << " " << SimdIsaName(isa);
    }
  }
}

// Every float in [1/8, 1/4): there tanh's result leans most on expm1's
// polynomial (a = -2|x| near -0.3, k = 0 and -1), so a one-ulp change to a
// coefficient the strided sweep can miss shows up here (85 inputs differ
// when its leading coefficient moves by one ulp).
TEST(ElementwiseKernelsTest, TanhAndSigmoidMatchScalarOnADenseBinade) {
  std::vector<float> inputs;
  for (uint32_t bits = 0x3e000000u; bits < 0x3e800000u; ++bits) {
    inputs.push_back(FromBits(bits));
  }
  for (const SimdIsa isa : {SimdIsa::kAvx2}) {
    for (const UnaryKernel& kernel : kUnaryKernels) {
      EXPECT_EQ(CountMismatches(kernel, isa, inputs), 0)
          << kernel.name << " " << SimdIsaName(isa);
    }
  }
}

// fdlibm's tanhf/expm1f branch edges +-1 ulp, at |x| and at |x|/2 (tanh
// passes 2|x| to expm1), both signs; and every float with 86 <= |x| <= 89,
// where sigmoid's exp(-x) leaves the range its double path covers.
TEST(ElementwiseKernelsTest, TanhAndSigmoidMatchScalarAtBranchEdges) {
  std::vector<float> inputs;
  for (const uint32_t edge : {0x24000000u, 0x33000000u, 0x3eb17218u,
                              0x3f851592u, 0x3f800000u, 0x41b00000u}) {
    for (const uint32_t bits : {edge, edge - (1u << 23)}) {
      for (const uint32_t sign : {0u, 0x80000000u}) {
        for (const uint32_t near : {bits - 1, bits, bits + 1}) {
          inputs.push_back(FromBits(near | sign));
        }
      }
    }
  }
  const uint32_t low = 0x42ac0000u;   // 86
  const uint32_t high = 0x42b20000u;  // 89
  for (uint32_t bits = low; bits <= high; ++bits) {
    inputs.push_back(FromBits(bits));
    inputs.push_back(FromBits(bits | 0x80000000u));
  }
  for (const SimdIsa isa : {SimdIsa::kAvx2}) {
    for (const UnaryKernel& kernel : kUnaryKernels) {
      EXPECT_EQ(CountMismatches(kernel, isa, inputs), 0)
          << kernel.name << " " << SimdIsaName(isa);
    }
  }
}

// Every length 0..17 (empty, tail only, one vector plus a tail, two
// vectors), from an aligned and an unaligned start, out of place and in
// place. The inputs mix N(0, 4) values with the values where the vector
// paths rerun the scalar reference.
TEST(ElementwiseKernelsTest, TanhAndSigmoidMatchScalarAtEveryLength) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {
      std::numeric_limits<float>::quiet_NaN(), -inf, inf, 100.0f, -88.5f,
      -0.0f, std::numeric_limits<float>::denorm_min()};
  std::vector<float> buffer(1 + 17);
  Rng rng(0x7a9bULL);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = i % 5 == 2 ? specials[(i / 5) % std::size(specials)]
                           : static_cast<float>(2.0 * rng.NextGaussian());
  }
  for (const SimdIsa isa : {SimdIsa::kAvx2}) {
    for (const UnaryKernel& kernel : kUnaryKernels) {
      const auto ref = ElementwiseKernelsForIsa(SimdIsa::kScalar).*kernel.slot;
      const auto vec = ElementwiseKernelsForIsa(isa).*kernel.slot;
      for (int64_t offset = 0; offset < 2; ++offset) {
        for (int64_t n = 0; n <= 17; ++n) {
          SCOPED_TRACE(testing::Message()
                       << kernel.name << " " << SimdIsaName(isa)
                       << " offset=" << offset << " n=" << n);
          std::vector<float> expected = buffer, out = buffer,
                             in_place = buffer;
          const float* x = buffer.data() + offset;
          ref(x, expected.data() + offset, n);
          vec(x, out.data() + offset, n);
          vec(in_place.data() + offset, in_place.data() + offset, n);
          EXPECT_TRUE(BitsEqual(out, expected));
          EXPECT_TRUE(BitsEqual(in_place, expected));
        }
      }
    }
  }
}

#if defined(__x86_64__)
// The AVX2 tanh is a copy of fdlibm's: installed exactly when libm's tanhf
// is fdlibm's, recognised here by its results at inputs where it differs
// from a correctly rounded tanhf by an ulp. (volatile: GCC would otherwise
// fold std::tanh of the constants with its own, correctly rounded, tanhf.)
TEST(ElementwiseKernelsTest, Avx2TanhIsInstalledExactlyOverFdlibm) {
  if (!SimdIsaSupported(SimdIsa::kAvx2)) GTEST_SKIP() << "no AVX2";
  const volatile uint32_t fdlibm_results[][2] = {
      {0x3a800003u, 0x3a800001u}, {0x3e000000u, 0x3dfeaccau},
      {0x3f000001u, 0x3eec9aa1u}, {0x3f800009u, 0x3f42f7deu},
      {0x408003a3u, 0x3f7fd416u},
  };
  bool libm_is_fdlibm = true;
  for (const auto& result : fdlibm_results) {
    const float y = std::tanh(FromBits(result[0]));
    libm_is_fdlibm &= y == FromBits(result[1]);
  }
  EXPECT_EQ(ElementwiseKernelsForIsa(SimdIsa::kAvx2).tanh_f32 ==
                &simd_avx2::TanhF32,
            libm_is_fdlibm);
}
#endif

// All 2^32 inputs through the host ISA's tanh_f32 and sigmoid_f32, on four
// threads (about 20 s with AVX2). Run it with --gtest_also_run_disabled_tests
// --gtest_filter='*DISABLED_TanhAndSigmoidMatchScalarOnEveryFloat'.
TEST(ElementwiseKernelsTest, DISABLED_TanhAndSigmoidMatchScalarOnEveryFloat) {
  const SimdIsa isa = DetectSimdIsa();
  if (isa == SimdIsa::kScalar) GTEST_SKIP() << "no vector ISA on this host";
  constexpr int kThreads = 4;
  constexpr int64_t kChunk = 1 << 14;
  {
    for (const UnaryKernel& kernel : kUnaryKernels) {
      const auto ref = ElementwiseKernelsForIsa(SimdIsa::kScalar).*kernel.slot;
      const auto vec = ElementwiseKernelsForIsa(isa).*kernel.slot;
      int64_t mismatches[kThreads] = {};
      uint32_t first_mismatch[kThreads] = {};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          std::vector<float> x(kChunk), expected(kChunk), out(kChunk);
          for (uint64_t start = static_cast<uint64_t>(t) * kChunk;
               start < (1ULL << 32); start += kThreads * kChunk) {
            for (int64_t i = 0; i < kChunk; ++i) {
              x[i] = FromBits(static_cast<uint32_t>(start + i));
            }
            ref(x.data(), expected.data(), kChunk);
            vec(x.data(), out.data(), kChunk);
            if (std::memcmp(out.data(), expected.data(),
                            kChunk * sizeof(float)) == 0) {
              continue;
            }
            for (int64_t i = 0; i < kChunk; ++i) {
              if (std::memcmp(&out[i], &expected[i], sizeof(float)) != 0 &&
                  mismatches[t]++ == 0) {
                first_mismatch[t] = static_cast<uint32_t>(start + i);
              }
            }
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      int64_t total = 0;
      for (int t = 0; t < kThreads; ++t) {
        total += mismatches[t];
        EXPECT_EQ(mismatches[t], 0)
            << kernel.name << " " << SimdIsaName(isa) << " first at x=0x"
            << std::hex << first_mismatch[t];
      }
      std::cout << kernel.name << " " << SimdIsaName(isa) << ": " << total
                << " mismatches over 2^32 inputs\n";
    }
  }
}

}  // namespace
}  // namespace lpsgd
