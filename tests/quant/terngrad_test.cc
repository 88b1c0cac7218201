// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/terngrad.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

std::vector<float> EncodeDecode(const TernGradCodec& codec, const Tensor& grad,
                                uint64_t tag) {
  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), grad.shape(), tag, nullptr, &workspace, &blob);
  EXPECT_EQ(static_cast<int64_t>(blob.size()),
            codec.EncodedSizeBytes(grad.shape()));
  std::vector<float> decoded(static_cast<size_t>(grad.size()));
  CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()),
                        grad.shape(), &workspace, decoded.data()));
  return decoded;
}

TEST(TernGradCodecTest, DecodedValuesAreTernary) {
  TernGradCodec codec(/*bucket_size=*/0, /*clip=*/0.0, /*seed=*/1);
  const Shape shape({64});
  Tensor grad(shape);
  Rng rng(2);
  grad.FillGaussian(&rng, 1.0f);
  float max_abs = 0.0f;
  for (int64_t i = 0; i < 64; ++i) {
    max_abs = std::max(max_abs, std::abs(grad.at(i)));
  }

  const std::vector<float> decoded = EncodeDecode(codec, grad, 7);
  for (int64_t i = 0; i < 64; ++i) {
    const float d = decoded[static_cast<size_t>(i)];
    EXPECT_TRUE(d == 0.0f || std::abs(d) == max_abs)
        << i << ": " << d << " vs scale " << max_abs;
    // The sign always matches (only the magnitude is stochastic).
    if (d != 0.0f) {
      EXPECT_EQ(std::signbit(d), std::signbit(grad.at(i))) << i;
    }
  }
}

TEST(TernGradCodecTest, PerMatrixScalarByDefault) {
  TernGradCodec layer_wise(0, 0.0, 1);
  EXPECT_EQ(layer_wise.NumChunks(Shape({1000})), 1);
  TernGradCodec bucketed(256, 0.0, 1);
  EXPECT_EQ(bucketed.NumChunks(Shape({1000})), 4);  // ceil(1000/256)
}

TEST(TernGradCodecTest, EncodedSizeFormula) {
  // n=64, layer-wise: 1 fp32 scale + 64 2-bit fields (4 words = 16 bytes)
  // + checksum.
  TernGradCodec layer_wise(0, 0.0, 1);
  EXPECT_EQ(layer_wise.EncodedSizeBytes(Shape({64})),
            4 + 16 + codec_internal::kWireChecksumBytes);
  // Bucketed at 16: 4 scales instead of 1.
  TernGradCodec bucketed(16, 0.0, 1);
  EXPECT_EQ(bucketed.EncodedSizeBytes(Shape({64})),
            16 + 16 + codec_internal::kWireChecksumBytes);
}

TEST(TernGradCodecTest, ZeroGradientRoundTripsToZero) {
  TernGradCodec codec(0, 0.0, 1);
  const Shape shape({32});
  Tensor grad(shape);
  grad.SetZero();
  const std::vector<float> decoded = EncodeDecode(codec, grad, 3);
  for (float d : decoded) EXPECT_EQ(d, 0.0f);
}

TEST(TernGradCodecTest, StochasticRoundingIsUnbiased) {
  // E[Q(g)] = g: averaging decodes across many independent stochastic tags
  // recovers the gradient.
  TernGradCodec codec(0, 0.0, 1);
  const Shape shape({16});
  Tensor grad(shape);
  Rng rng(4);
  grad.FillGaussian(&rng, 1.0f);

  const int kRounds = 4000;
  std::vector<double> mean(16, 0.0);
  for (int t = 0; t < kRounds; ++t) {
    const std::vector<float> decoded =
        EncodeDecode(codec, grad, static_cast<uint64_t>(t));
    for (int64_t i = 0; i < 16; ++i) {
      mean[static_cast<size_t>(i)] += decoded[static_cast<size_t>(i)];
    }
  }
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(mean[static_cast<size_t>(i)] / kRounds, grad.at(i), 0.15)
        << i;
  }
}

TEST(TernGradCodecTest, ClippingCapsTheScale) {
  CodecWorkspace workspace;
  // One huge outlier among small components: unclipped, the scale is the
  // outlier and every small component is almost always rounded to zero.
  // Clipped at 2.5 sigma, the scale drops to clip * RMS.
  const Shape shape({256});
  Tensor grad(shape);
  Rng rng(5);
  grad.FillGaussian(&rng, 0.1f);
  grad.at(0) = 50.0f;

  double sum_sq = 0.0;
  for (int64_t i = 0; i < 256; ++i) {
    sum_sq += static_cast<double>(grad.at(i)) * grad.at(i);
  }
  const float rms = static_cast<float>(std::sqrt(sum_sq / 256));

  TernGradCodec clipped(0, 2.5, 1);
  std::vector<uint8_t> blob;
  clipped.Encode(grad.data(), shape, 11, nullptr, &workspace, &blob);
  float scale;
  std::memcpy(&scale, blob.data(), sizeof(float));
  EXPECT_FLOAT_EQ(scale, 2.5f * rms);
  EXPECT_LT(scale, 50.0f);

  TernGradCodec unclipped(0, 0.0, 1);
  blob.clear();
  unclipped.Encode(grad.data(), shape, 11, nullptr, &workspace, &blob);
  std::memcpy(&scale, blob.data(), sizeof(float));
  EXPECT_FLOAT_EQ(scale, 50.0f);
}

TEST(TernGradCodecTest, ClippedComponentsSaturate) {
  CodecWorkspace workspace;
  // A component above the clip threshold has P(±s) = 1: it deterministically
  // decodes to the (clipped) scale.
  const Shape shape({8});
  Tensor grad(shape);
  grad.SetZero();
  grad.at(0) = 100.0f;
  grad.at(1) = 1.0f;

  TernGradCodec codec(0, 1.0, 1);
  for (uint64_t tag = 0; tag < 16; ++tag) {
    std::vector<uint8_t> blob;
    codec.Encode(grad.data(), shape, tag, nullptr, &workspace, &blob);
    float scale;
    std::memcpy(&scale, blob.data(), sizeof(float));
    std::vector<float> decoded(8);
    CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()),
                          shape, &workspace, decoded.data()));
    EXPECT_FLOAT_EQ(decoded[0], scale) << tag;
  }
}

TEST(TernGradCodecTest, FactoryAndSpec) {
  auto codec = TernGradSpec().Create();
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ((*codec)->Name(), "TernGrad");
  EXPECT_FALSE((*codec)->UsesErrorFeedback());

  auto bucketed = TernGradSpec(128, 3.0).Create();
  ASSERT_TRUE(bucketed.ok());

  CodecSpec bad = TernGradSpec();
  bad.bucket_size = -1;
  EXPECT_FALSE(bad.Create().ok());
  bad = TernGradSpec();
  bad.clip = -0.5;
  EXPECT_FALSE(bad.Create().ok());
}

}  // namespace
}  // namespace lpsgd
