// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/topk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

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

// The kept set as a codec blob carries it: indices in index order and the
// sent values.
struct SparseForm {
  std::vector<uint32_t> indices;
  std::vector<float> values;
};

SparseForm EncodeSparse(const TopKCodec& codec,
                        const std::vector<float>& grad) {
  const Shape shape({static_cast<int64_t>(grad.size())});
  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
  const int64_t k = codec.SparseCount(shape);
  SparseForm form;
  form.indices.resize(static_cast<size_t>(k));
  form.values.resize(static_cast<size_t>(k));
  CHECK_OK(codec.DecodeSparse(blob.data(), static_cast<int64_t>(blob.size()),
                              shape, &workspace, form.indices.data(),
                              form.values.data()));
  return form;
}

TEST(TopKCodecTest, TiesAtTheThresholdKeepTheLowestIndices) {
  // Eight equal magnitudes, k = 2: the two lowest indices win the tie.
  TopKCodec codec(/*density=*/0.25, /*error_feedback=*/false);
  const std::vector<float> equal = {1.5f,  -1.5f, -1.5f, 1.5f,
                                    -1.5f, 1.5f,  1.5f,  -1.5f};
  SparseForm form = EncodeSparse(codec, equal);
  EXPECT_EQ(form.indices, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(form.values, (std::vector<float>{1.5f, -1.5f}));

  // An all-zero gradient (signed zeros included) keeps indices 0..249 at
  // n = 1000 and sends every value as +0.0.
  std::vector<float> zeros(1000, 0.0f);
  for (size_t i = 0; i < zeros.size(); i += 3) zeros[i] = -0.0f;
  form = EncodeSparse(codec, zeros);
  std::vector<uint32_t> lowest(250);
  std::iota(lowest.begin(), lowest.end(), 0u);
  EXPECT_EQ(form.indices, lowest);
  for (const float value : form.values) {
    EXPECT_EQ(std::bit_cast<uint32_t>(value), 0u);
  }
}

TEST(TopKCodecTest, SelectionMatchesStableSortReference) {
  // A small value set, so every radix digit sees ties across the
  // threshold: 1.0f and neighbours differing only in the low digit (bits
  // 9..0), only in the middle digit (bits 20..10), or in both, plus
  // signed zeros, denormals, infinities, and quiet and signalling NaNs of
  // both signs, with payloads (g + 0.0f quiets a signalling NaN, so its key
  // is that of the quiet NaN it becomes).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const auto bits = [](uint32_t b) { return std::bit_cast<float>(b); };
  const float common[] = {
      1.0f,   -1.0f,  bits(0x3f800001u), -bits(0x3f800001u),
      bits(0x3f800400u), -bits(0x3f800401u), bits(0x3f800401u),
      0.5f,   0.0f,   -0.0f,
      denorm, -denorm, bits(0x00000401u), bits(0x007fffffu)};
  const float rare[] = {
      inf, -inf, nan, -nan, bits(0x7f800001u), bits(0xff800001u),
      bits(0x7fa00abcu), bits(0xff9fffffu)};
  const int64_t sizes[] = {1, 2, 7, 512, 2047, 2048, 2049, 16384, 100003};
  const double densities[] = {1e-9, 0.01, 0.25, 1.0};  // k = 1, 1%, 25%, n
  Rng rng(25);
  for (const int64_t n : sizes) {
    std::vector<float> grad(static_cast<size_t>(n));
    for (float& value : grad) {
      value = rng.NextUint64(64) == 0
                  ? rare[rng.NextUint64(std::size(rare))]
                  : common[rng.NextUint64(std::size(common))];
    }
    // Reference: the staged values (grad + 0.0f) keyed by their bits with
    // the sign cleared, stable-sorted by descending key.
    std::vector<float> staged(grad.size());
    std::vector<uint32_t> keys(grad.size());
    for (size_t i = 0; i < grad.size(); ++i) {
      staged[i] = grad[i] + 0.0f;
      keys[i] = std::bit_cast<uint32_t>(staged[i]) & 0x7fffffffu;
    }
    std::vector<uint32_t> order(grad.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return keys[a] > keys[b];
    });
    for (const double density : densities) {
      TopKCodec codec(density, /*error_feedback=*/false);
      const int64_t k = codec.KeptCount(n);
      SCOPED_TRACE(testing::Message() << "n=" << n << " k=" << k);
      std::vector<uint32_t> expected(order.begin(), order.begin() + k);
      std::sort(expected.begin(), expected.end());

      const SparseForm form = EncodeSparse(codec, grad);
      ASSERT_EQ(form.indices, expected);
      for (size_t j = 0; j < expected.size(); ++j) {
        ASSERT_EQ(std::bit_cast<uint32_t>(form.values[j]),
                  std::bit_cast<uint32_t>(staged[expected[j]]))
            << "index " << expected[j];
      }
      // NaN ranks above +inf: when k covers every NaN, all are kept.
      const int64_t nan_count = std::count_if(
          grad.begin(), grad.end(), [](float v) { return std::isnan(v); });
      if (nan_count <= k) {
        EXPECT_EQ(std::count_if(form.values.begin(), form.values.end(),
                                [](float v) { return std::isnan(v); }),
                  nan_count);
      }
    }
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
