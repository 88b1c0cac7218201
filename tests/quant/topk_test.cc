// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/topk.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"
#include "base/logging.h"

namespace lpsgd {
namespace {

std::vector<float> EncodeDecode(const TopKCodec& codec, const Tensor& grad,
                                std::vector<float>* error) {
  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), grad.shape(), 0, error, &workspace, &blob);
  EXPECT_EQ(static_cast<int64_t>(blob.size()),
            codec.EncodedSizeBytes(grad.shape()));
  std::vector<float> decoded(static_cast<size_t>(grad.size()));
  CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()), grad.shape(),
               &workspace, decoded.data()));
  return decoded;
}

TEST(TopKCodecTest, KeepsExactlyTheLargestMagnitudes) {
  TopKCodec codec(/*density=*/0.25, /*error_feedback=*/false);
  const Shape shape({8});
  Tensor grad(shape);
  const float values[] = {0.1f, -5.0f, 0.2f, 3.0f, -0.3f, 0.4f, 0.0f, 1.0f};
  std::copy(values, values + 8, grad.data());

  const std::vector<float> decoded = EncodeDecode(codec, grad, nullptr);
  // k = 2: keeps -5 and 3, zeros the rest, values exact.
  EXPECT_FLOAT_EQ(decoded[1], -5.0f);
  EXPECT_FLOAT_EQ(decoded[3], 3.0f);
  for (int i : {0, 2, 4, 5, 6, 7}) {
    EXPECT_EQ(decoded[static_cast<size_t>(i)], 0.0f) << i;
  }
}

TEST(TopKCodecTest, KeptCountAtLeastOne) {
  TopKCodec codec(0.001, false);
  EXPECT_EQ(codec.KeptCount(10), 1);
  EXPECT_EQ(codec.KeptCount(10000), 10);
}

TEST(TopKCodecTest, EncodedSizeFormula) {
  TopKCodec codec(0.1, false);
  // n=1000 -> k=100. Indices are bit-packed at IndexBitWidth(1000) = 10
  // bits, 3 per word (values never straddle words): ceil(100/3) = 34
  // words = 136 bytes. Then k fp32 values and the checksum word.
  EXPECT_EQ(codec.EncodedSizeBytes(Shape({1000})),
            4 + 136 + 100 * 4 + codec_internal::kWireChecksumBytes);
}

TEST(TopKCodecTest, DensityOneIsLossless) {
  TopKCodec codec(1.0, false);
  const Shape shape({64});
  Tensor grad(shape);
  Rng rng(1);
  grad.FillGaussian(&rng, 1.0f);
  const std::vector<float> decoded = EncodeDecode(codec, grad, nullptr);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(decoded[static_cast<size_t>(i)], grad.at(i));
  }
  // ... but still more bytes than fp32 (index overhead), the paper's
  // point: 64 indices at 6 bits, 5 per word -> 13 words = 52 bytes on
  // top of the 64 fp32 values.
  EXPECT_EQ(codec.EncodedSizeBytes(shape),
            4 + 52 + 64 * 4 + codec_internal::kWireChecksumBytes);
}

TEST(TopKCodecTest, ErrorFeedbackAccumulatesUnsentComponents) {
  TopKCodec codec(0.25, /*error_feedback=*/true);
  const Shape shape({4});
  Tensor grad(shape);
  grad.at(0) = 10.0f;
  grad.at(1) = 1.0f;
  grad.at(2) = 2.0f;
  grad.at(3) = 0.5f;
  std::vector<float> error(4, 0.0f);

  std::vector<float> decoded = EncodeDecode(codec, grad, &error);
  // k=1: only index 0 sent; others accumulate.
  EXPECT_FLOAT_EQ(decoded[0], 10.0f);
  EXPECT_FLOAT_EQ(error[0], 0.0f);
  EXPECT_FLOAT_EQ(error[1], 1.0f);
  EXPECT_FLOAT_EQ(error[2], 2.0f);
  EXPECT_FLOAT_EQ(error[3], 0.5f);

  // Second round with the same gradient: index 0 is sent again (largest),
  // but accumulated components keep growing until they win.
  decoded = EncodeDecode(codec, grad, &error);
  EXPECT_FLOAT_EQ(error[2], 4.0f);

  // Zero gradient rounds: the accumulated component 2 eventually wins.
  grad.SetZero();
  decoded = EncodeDecode(codec, grad, &error);
  EXPECT_FLOAT_EQ(decoded[2], 4.0f);
  EXPECT_FLOAT_EQ(error[2], 0.0f);
}

TEST(TopKCodecTest, RunningSumPreservedWithErrorFeedback) {
  // As with 1bitSGD, decoded_sum + residual == true_sum exactly.
  TopKCodec codec(0.1, true);
  const Shape shape({50});
  Rng rng(3);
  std::vector<float> error(50, 0.0f);
  std::vector<double> true_sum(50, 0.0), decoded_sum(50, 0.0);
  Tensor grad(shape);
  for (int iter = 0; iter < 100; ++iter) {
    grad.FillGaussian(&rng, 1.0f);
    for (int64_t i = 0; i < 50; ++i) {
      true_sum[static_cast<size_t>(i)] += grad.at(i);
    }
    const std::vector<float> decoded = EncodeDecode(codec, grad, &error);
    for (int64_t i = 0; i < 50; ++i) {
      decoded_sum[static_cast<size_t>(i)] += decoded[static_cast<size_t>(i)];
    }
  }
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(decoded_sum[static_cast<size_t>(i)] +
                    error[static_cast<size_t>(i)],
                true_sum[static_cast<size_t>(i)], 1e-3)
        << i;
  }
}

TEST(TopKCodecTest, FactoryAndSpec) {
  const CodecSpec spec = TopKSpec(0.05);
  EXPECT_EQ(spec.Label(), "TopK 5.0%");
  EXPECT_EQ(spec.ShortLabel(), "K5");
  auto codec = spec.Create();
  ASSERT_TRUE(codec.ok());
  EXPECT_TRUE((*codec)->UsesErrorFeedback());

  CodecSpec bad = TopKSpec(0.0);
  EXPECT_FALSE(bad.Create().ok());
  bad = TopKSpec(1.5);
  EXPECT_FALSE(bad.Create().ok());
}

class TopKDensityTest : public ::testing::TestWithParam<double> {};

TEST_P(TopKDensityTest, RoundtripKeepsKLargestAndZerosRest) {
  const double density = GetParam();
  TopKCodec codec(density, false);
  const Shape shape({237});  // awkward size
  Tensor grad(shape);
  Rng rng(static_cast<uint64_t>(density * 1e6));
  grad.FillGaussian(&rng, 1.0f);

  const std::vector<float> decoded = EncodeDecode(codec, grad, nullptr);
  const int64_t k = codec.KeptCount(237);
  int64_t nonzero = 0;
  float min_kept = 1e30f;
  for (int64_t i = 0; i < 237; ++i) {
    if (decoded[static_cast<size_t>(i)] != 0.0f) {
      ++nonzero;
      EXPECT_EQ(decoded[static_cast<size_t>(i)], grad.at(i));
      min_kept = std::min(min_kept, std::abs(decoded[static_cast<size_t>(i)]));
    }
  }
  EXPECT_EQ(nonzero, k);
  // No dropped component may exceed the smallest kept magnitude.
  for (int64_t i = 0; i < 237; ++i) {
    if (decoded[static_cast<size_t>(i)] == 0.0f) {
      EXPECT_LE(std::abs(grad.at(i)), min_kept + 1e-6f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, TopKDensityTest,
                         ::testing::Values(0.004, 0.01, 0.1, 0.5, 1.0));

}  // namespace
}  // namespace lpsgd
