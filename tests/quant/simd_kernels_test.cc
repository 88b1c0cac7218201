// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// SIMD/scalar bit-identity property tests: for every codec configuration,
// the blob bytes, the error-feedback state, and the decoded floats produced
// under a forced vector ISA must be byte-for-byte what the scalar golden
// reference produces. Lengths are chosen to hit every head/tile/tail split
// of the vector kernels (word-straddling buckets, sub-word tails, exact
// tile multiples); wire_format_test.cc pins the absolute bytes, this file
// pins scalar==SIMD at sizes the goldens do not cover.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/simd.h"
#include "quant/codec.h"
#include "quant/workspace.h"
#include "tensor/shape.h"

namespace lpsgd {
namespace {

std::vector<float> PropertyGradient(int64_t n) {
  std::vector<float> grad(static_cast<size_t>(n));
  Rng rng(0x51D5EEDULL + static_cast<uint64_t>(n));
  for (auto& g : grad) g = static_cast<float>(rng.NextGaussian());
  // Edge values the lane math must carry through unchanged: signed zeros,
  // subnormals, and a zero stretch that produces zero-scale buckets.
  if (n > 0) grad[0] = -0.0f;
  if (n > 1) grad[1] = 0.0f;
  if (n > 2) grad[2] = 1e-42f;
  if (n > 3) grad[3] = -1e-42f;
  for (int64_t i = 10; i < 40 && i < n; ++i) grad[static_cast<size_t>(i)] = 0.0f;
  return grad;
}

// Lengths covering the kernel structure: empty-ish, sub-word, word-straddle,
// exact words, tile boundary (64 words per tile), and large odd sizes.
const int64_t kLengths[] = {1,   2,   3,   5,    7,    8,    9,   15,  16,
                            17,  31,  32,  33,   63,   64,   65,  100, 127,
                            255, 256, 257, 511,  513,  1000, 1023, 1024,
                            1025, 2048, 2051};

struct PropertyCase {
  const char* name;
  CodecSpec spec;
};

CodecSpec Qsgd(int bits, int64_t bucket, QsgdNorm norm, QsgdLevelScheme lv) {
  CodecSpec spec = QsgdSpec(bits);
  spec.bucket_size = bucket;
  spec.norm = norm;
  spec.levels = lv;
  return spec;
}

CodecSpec OneBitStar(int64_t bucket, bool ef) {
  CodecSpec spec = OneBitSgdReshapedSpec(bucket);
  spec.error_feedback = ef;
  return spec;
}

CodecSpec Nuq(int bits, int64_t bucket) {
  CodecSpec spec = NuqsgdSpec(bits);
  spec.bucket_size = bucket;
  return spec;
}

CodecSpec Ecq(int bits, int64_t bucket, bool ef) {
  CodecSpec spec = EcqSgdSpec(bits);
  spec.bucket_size = bucket;
  spec.error_feedback = ef;
  return spec;
}

std::vector<PropertyCase> PropertyCases() {
  const QsgdNorm kL2 = QsgdNorm::kL2;
  const QsgdNorm kMax = QsgdNorm::kMax;
  const QsgdLevelScheme kSm = QsgdLevelScheme::kSignMagnitude;
  const QsgdLevelScheme kSy = QsgdLevelScheme::kSymmetric;
  return {
      {"fp32", FullPrecisionSpec()},
      {"q2_b4", Qsgd(2, 4, kMax, kSm)},
      {"q2_b33", Qsgd(2, 33, kMax, kSm)},  // bucket straddles field words
      {"q4_b7", Qsgd(4, 7, kMax, kSm)},
      {"q4_b512", Qsgd(4, 512, kMax, kSm)},
      {"q4_b512_l2", Qsgd(4, 512, kL2, kSm)},
      {"q4_b512_sym", Qsgd(4, 512, kMax, kSy)},
      {"q4_b512_l2_sym", Qsgd(4, 512, kL2, kSy)},
      {"q8_b100", Qsgd(8, 100, kMax, kSm)},
      {"q16_b3", Qsgd(16, 3, kMax, kSm)},
      {"q16_b512", Qsgd(16, 512, kMax, kSm)},
      {"nuq4_b4", Nuq(4, 4)},
      {"nuq4_b512", Nuq(4, 512)},
      {"nuq8_b100", Nuq(8, 100)},
      {"ecq4_b4", Ecq(4, 4, true)},
      {"ecq4_b512", Ecq(4, 512, true)},
      {"ecq4_b512_no_ef", Ecq(4, 512, false)},
      {"ecq8_b100", Ecq(8, 100, true)},
      {"terngrad", TernGradSpec()},
      {"terngrad_b256", TernGradSpec(256)},
      {"terngrad_clip", TernGradSpec(0, 2.5)},
      {"one_bit_stock", OneBitSgdSpec()},
      {"one_bit_star_b4", OneBitStar(4, true)},
      {"one_bit_star_b64", OneBitStar(64, true)},
      {"one_bit_star_b64_no_ef", OneBitStar(64, false)},
      {"topk_1pct", TopKSpec(0.01)},
      {"topk_25pct", TopKSpec(0.25)},
  };
}

struct CodecRun {
  std::vector<uint8_t> blob1;   // fresh error-feedback state
  std::vector<uint8_t> blob2;   // after one error-feedback round
  std::vector<float> error;     // error-feedback state after round 2
  std::vector<float> decoded;   // round-2 blob decoded
};

CodecRun RunCodec(const CodecSpec& spec, const std::vector<float>& grad) {
  CodecWorkspace workspace;
  CodecRun run;
  auto codec = spec.Create();
  EXPECT_TRUE(codec.ok());
  if (!codec.ok()) return run;
  const int64_t n = static_cast<int64_t>(grad.size());
  const Shape shape({n});
  run.error.assign(grad.size(), 0.0f);
  std::vector<float>* error_ptr =
      (*codec)->UsesErrorFeedback() ? &run.error : nullptr;
  (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/777, error_ptr,
                   &workspace, &run.blob1);
  (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/778, error_ptr,
                   &workspace, &run.blob2);
  run.decoded.assign(grad.size(), 0.0f);
  EXPECT_TRUE((*codec)
                  ->Decode(run.blob2.data(),
                           static_cast<int64_t>(run.blob2.size()), shape,
                           &workspace, run.decoded.data())
                  .ok());
  return run;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(SimdKernelsTest, EveryIsaMatchesScalarByteForByte) {
  const std::vector<PropertyCase> cases = PropertyCases();
  for (const int64_t n : kLengths) {
    const std::vector<float> grad = PropertyGradient(n);
    for (const PropertyCase& c : cases) {
      SCOPED_TRACE(testing::Message() << c.name << " n=" << n);
      CodecRun scalar_run;
      {
        ScopedSimdIsa force(SimdIsa::kScalar);
        scalar_run = RunCodec(c.spec, grad);
      }
      for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
        SCOPED_TRACE(SimdIsaName(isa));
        ScopedSimdIsa force(isa);
        const CodecRun simd_run = RunCodec(c.spec, grad);
        EXPECT_EQ(scalar_run.blob1, simd_run.blob1);
        EXPECT_EQ(scalar_run.blob2, simd_run.blob2);
        EXPECT_TRUE(BitwiseEqual(scalar_run.error, simd_run.error));
        EXPECT_TRUE(BitwiseEqual(scalar_run.decoded, simd_run.decoded));
      }
    }
  }
}

// Same property through the explicit-workspace overloads the exchange hot
// path uses — a warm workspace skips the growth path, so the SIMD kernels
// run against reused buffers here rather than fresh ones.
TEST(SimdKernelsTest, WorkspaceOverloadsMatchScalarByteForByte) {
  const int64_t kWorkspaceLengths[] = {7, 65, 513, 1025};
  const std::vector<PropertyCase> cases = PropertyCases();
  for (const int64_t n : kWorkspaceLengths) {
    const std::vector<float> grad = PropertyGradient(n);
    const Shape shape({n});
    for (const PropertyCase& c : cases) {
      SCOPED_TRACE(testing::Message() << c.name << " n=" << n);
      std::vector<uint8_t> scalar_blob;
      std::vector<float> scalar_decoded;
      for (const SimdIsa isa :
           {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
        SCOPED_TRACE(SimdIsaName(isa));
        ScopedSimdIsa force(isa);
        auto codec = c.spec.Create();
        ASSERT_TRUE(codec.ok());
        CodecWorkspace workspace;
        std::vector<uint8_t> blob;
        std::vector<float> decoded(grad.size(), 0.0f);
        std::vector<float> error(grad.size(), 0.0f);
        std::vector<float>* error_ptr =
            (*codec)->UsesErrorFeedback() ? &error : nullptr;
        // Two rounds so the second runs against a warm workspace.
        for (uint64_t round = 0; round < 2; ++round) {
          (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/91 + round,
                           error_ptr, &workspace, &blob);
          ASSERT_TRUE((*codec)
                          ->Decode(blob.data(),
                                   static_cast<int64_t>(blob.size()), shape,
                                   &workspace, decoded.data())
                          .ok());
        }
        if (isa == SimdIsa::kScalar) {
          scalar_blob = blob;
          scalar_decoded = decoded;
        } else {
          EXPECT_EQ(scalar_blob, blob);
          EXPECT_TRUE(BitwiseEqual(scalar_decoded, decoded));
        }
      }
    }
  }
}

}  // namespace
}  // namespace lpsgd
