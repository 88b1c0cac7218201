// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/one_bit_sgd.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"
#include "base/logging.h"

namespace lpsgd {
namespace {

std::vector<float> Decode(const GradientCodec& codec,
                          const std::vector<uint8_t>& blob,
                          const Shape& shape) {
  CodecWorkspace workspace;
  std::vector<float> decoded(static_cast<size_t>(shape.element_count()));
  CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()), shape,
               &workspace, decoded.data()));
  return decoded;
}

TEST(OneBitSgdTest, DecodedValuesAreColumnAverages) {
  CodecWorkspace workspace;
  OneBitSgdCodec codec(/*error_feedback=*/false);
  const Shape shape({4, 2});  // 2 columns of 4 elements
  // Column 0 (stride 2): {1, 3, -2, -4}; column 1: {2, -1, 5, 0}.
  std::vector<float> grad = {1, 2, 3, -1, -2, 5, -4, 0};

  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
  const std::vector<float> decoded = Decode(codec, blob, shape);

  // Column 0: avg+ = 2, avg- = -3. Column 1: avg+ = (2+5+0)/3, avg- = -1.
  EXPECT_FLOAT_EQ(decoded[0], 2.0f);    // 1 -> avg+
  EXPECT_FLOAT_EQ(decoded[2], 2.0f);    // 3 -> avg+
  EXPECT_FLOAT_EQ(decoded[4], -3.0f);   // -2 -> avg-
  EXPECT_FLOAT_EQ(decoded[6], -3.0f);   // -4 -> avg-
  EXPECT_FLOAT_EQ(decoded[1], 7.0f / 3.0f);
  EXPECT_FLOAT_EQ(decoded[3], -1.0f);
  EXPECT_FLOAT_EQ(decoded[5], 7.0f / 3.0f);
  EXPECT_FLOAT_EQ(decoded[7], 7.0f / 3.0f);  // 0 counts as positive
}

TEST(OneBitSgdTest, ChunkSumIsPreserved) {
  CodecWorkspace workspace;
  // avg+/avg- quantization preserves the per-chunk sum exactly (without
  // error feedback): sum(q) = n+ * avg+ + n- * avg- = sum(v).
  OneBitSgdCodec codec(/*error_feedback=*/false);
  const Shape shape({16, 3});
  Tensor grad(shape);
  Rng rng(1);
  grad.FillGaussian(&rng, 1.0f);

  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
  const std::vector<float> decoded = Decode(codec, blob, shape);
  for (int64_t c = 0; c < 3; ++c) {
    double original = 0.0, quantized = 0.0;
    for (int64_t r = 0; r < 16; ++r) {
      original += grad.at(r * 3 + c);
      quantized += decoded[static_cast<size_t>(r * 3 + c)];
    }
    EXPECT_NEAR(original, quantized, 1e-4) << "column " << c;
  }
}

TEST(OneBitSgdTest, ErrorFeedbackStoresResidual) {
  CodecWorkspace workspace;
  OneBitSgdCodec codec(/*error_feedback=*/true);
  const Shape shape({8, 1});
  Tensor grad(shape);
  Rng rng(2);
  grad.FillGaussian(&rng, 1.0f);
  std::vector<float> error(8, 0.0f);

  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 0, &error, &workspace, &blob);
  const std::vector<float> decoded = Decode(codec, blob, shape);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(error[static_cast<size_t>(i)],
                grad.at(i) - decoded[static_cast<size_t>(i)], 1e-6);
  }
}

TEST(OneBitSgdTest, ErrorFeedbackCompensatesOverIterations) {
  CodecWorkspace workspace;
  // Feeding the residual forward makes the *running sum* of decoded
  // gradients track the running sum of true gradients (the property that
  // rescues 1-bit accuracy, Section 5.1).
  OneBitSgdReshapedCodec codec(/*bucket_size=*/16, /*error_feedback=*/true);
  const Shape shape({16});
  Rng rng(3);
  std::vector<float> error(16, 0.0f);

  std::vector<double> true_sum(16, 0.0), decoded_sum(16, 0.0);
  Tensor grad(shape);
  std::vector<uint8_t> blob;
  for (int iter = 0; iter < 400; ++iter) {
    grad.FillGaussian(&rng, 1.0f);
    for (int64_t i = 0; i < 16; ++i) {
      true_sum[static_cast<size_t>(i)] += grad.at(i);
    }
    codec.Encode(grad.data(), shape, static_cast<uint64_t>(iter), &error,
                 &workspace, &blob);
    const std::vector<float> decoded = Decode(codec, blob, shape);
    for (int64_t i = 0; i < 16; ++i) {
      decoded_sum[static_cast<size_t>(i)] += decoded[static_cast<size_t>(i)];
    }
  }
  // The residual bounds the divergence: |sum difference| = |error| stays
  // O(1) while the sums themselves grow like sqrt(iterations).
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(decoded_sum[static_cast<size_t>(i)],
                true_sum[static_cast<size_t>(i)],
                5.0)
        << i;
    EXPECT_NEAR(decoded_sum[static_cast<size_t>(i)] +
                    error[static_cast<size_t>(i)],
                true_sum[static_cast<size_t>(i)], 1e-3)
        << i;
  }
}

TEST(OneBitSgdTest, WithoutErrorFeedbackResidualUntouched) {
  CodecWorkspace workspace;
  OneBitSgdCodec codec(/*error_feedback=*/false);
  EXPECT_FALSE(codec.UsesErrorFeedback());
  const Shape shape({4, 1});
  Tensor grad(shape);
  grad.Fill(1.0f);
  std::vector<uint8_t> blob;
  // Must not crash.
  codec.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
}

TEST(OneBitSgdTest, AllPositiveColumn) {
  CodecWorkspace workspace;
  OneBitSgdCodec codec(false);
  const Shape shape({4, 1});
  std::vector<float> grad = {1, 2, 3, 4};
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
  const std::vector<float> decoded = Decode(codec, blob, shape);
  for (float v : decoded) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(OneBitSgdTest, AllNegativeColumn) {
  CodecWorkspace workspace;
  OneBitSgdCodec codec(false);
  const Shape shape({4, 1});
  std::vector<float> grad = {-1, -2, -3, -4};
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
  const std::vector<float> decoded = Decode(codec, blob, shape);
  for (float v : decoded) EXPECT_FLOAT_EQ(v, -2.5f);
}

TEST(OneBitSgdTest, ZeroColumnDecodesToZero) {
  CodecWorkspace workspace;
  OneBitSgdCodec codec(false);
  const Shape shape({8, 1});
  std::vector<float> grad(8, 0.0f);
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
  const std::vector<float> decoded = Decode(codec, blob, shape);
  for (float v : decoded) EXPECT_FLOAT_EQ(v, 0.0f);
}

class ReshapedBucketSizeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ReshapedBucketSizeTest, RoundtripStructure) {
  CodecWorkspace workspace;
  const int64_t bucket = GetParam();
  OneBitSgdReshapedCodec codec(bucket, /*error_feedback=*/false);
  const Shape shape({3, 101});  // deliberately not bucket-aligned
  Tensor grad(shape);
  Rng rng(static_cast<uint64_t>(bucket));
  grad.FillGaussian(&rng, 1.0f);

  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
  EXPECT_EQ(static_cast<int64_t>(blob.size()),
            codec.EncodedSizeBytes(shape));
  const std::vector<float> decoded = Decode(codec, blob, shape);

  // Each decoded value equals its bucket's avg+ or avg- and matches the
  // sign of the original.
  const int64_t n = shape.element_count();
  for (int64_t i = 0; i < n; ++i) {
    const bool positive = grad.at(i) >= 0.0f;
    EXPECT_EQ(decoded[static_cast<size_t>(i)] >= 0.0f, positive) << i;
  }
  // Per-bucket sums are preserved.
  const int64_t buckets = codec.NumChunks(shape);
  for (int64_t b = 0; b < buckets; ++b) {
    const int64_t begin = b * bucket;
    const int64_t end = std::min(begin + bucket, n);
    double original = 0.0, quantized = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      original += grad.at(i);
      quantized += decoded[static_cast<size_t>(i)];
    }
    EXPECT_NEAR(original, quantized, 1e-3) << "bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(BucketSizes, ReshapedBucketSizeTest,
                         ::testing::Values(1, 7, 32, 64, 512, 100000));

TEST(OneBitSgdTest, ColumnAndReshapedAgreeOnSingleColumnMatrix) {
  CodecWorkspace workspace;
  // A matrix with one column and bucket == rows makes both variants chunk
  // identically.
  const Shape shape({32, 1});
  Tensor grad(shape);
  Rng rng(9);
  grad.FillGaussian(&rng, 1.0f);

  OneBitSgdCodec column(false);
  OneBitSgdReshapedCodec reshaped(32, false);
  std::vector<uint8_t> blob_col, blob_re;
  column.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob_col);
  reshaped.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob_re);
  EXPECT_EQ(Decode(column, blob_col, shape), Decode(reshaped, blob_re, shape));
}

}  // namespace
}  // namespace lpsgd
