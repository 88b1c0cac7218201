// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/adaptive_qsgd.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "quant/qsgd.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"
#include "base/logging.h"

namespace lpsgd {
namespace {

std::vector<float> EncodeDecode(const GradientCodec& codec,
                                const Tensor& grad, uint64_t tag) {
  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), grad.shape(), tag, nullptr, &workspace, &blob);
  EXPECT_EQ(static_cast<int64_t>(blob.size()),
            codec.EncodedSizeBytes(grad.shape()));
  std::vector<float> decoded(static_cast<size_t>(grad.size()));
  CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()), grad.shape(),
               &workspace, decoded.data()));
  return decoded;
}

TEST(AdaptiveQsgdTest, LevelsAreSortedAndSpanUnitInterval) {
  AdaptiveQsgdCodec codec(4, 64, /*seed=*/1);
  const Shape shape({512});
  Tensor grad(shape);
  Rng rng(2);
  grad.FillGaussian(&rng, 1.0f);

  // Per-bucket max-norm scales, as the encoder computes them.
  std::vector<float> scales;
  for (int64_t b = 0; b < 8; ++b) {
    double max_abs = 0.0;
    for (int64_t i = b * 64; i < (b + 1) * 64; ++i) {
      max_abs = std::max(max_abs, std::abs(double{grad.at(i)}));
    }
    scales.push_back(static_cast<float>(max_abs));
  }

  const std::vector<float> levels =
      codec.ComputeLevels(grad.data(), shape, scales);
  ASSERT_EQ(levels.size(), codec.level_count() + 1);
  EXPECT_EQ(levels.front(), 0.0f);
  EXPECT_EQ(levels.back(), 1.0f);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_GE(levels[i], levels[i - 1]);
  }
}

TEST(AdaptiveQsgdTest, LevelsFollowTheDataDistribution) {
  // Gaussian magnitudes concentrate near zero; the quantile levels must be
  // denser near zero than a uniform grid.
  AdaptiveQsgdCodec codec(4, 4096, 1);
  const Shape shape({4096});
  Tensor grad(shape);
  Rng rng(3);
  grad.FillGaussian(&rng, 1.0f);
  std::vector<float> scales = {static_cast<float>(grad.AbsMax())};
  const std::vector<float> levels =
      codec.ComputeLevels(grad.data(), shape, scales);
  const uint32_t s = codec.level_count();
  // The median magnitude of a folded Gaussian is ~0.67 sigma while the max
  // of 4096 draws is ~3.5 sigma, so the variance-minimizing placement
  // pulls the middle level visibly below its uniform-grid position.
  const float uniform_position =
      static_cast<float>(s / 2 + 1) / static_cast<float>(s);
  EXPECT_LT(levels[s / 2 + 1], uniform_position - 0.05f);
}

TEST(AdaptiveQsgdTest, UnbiasedEstimator) {
  AdaptiveQsgdCodec codec(4, 64, 1);
  const Shape shape({64});
  Tensor grad(shape);
  Rng rng(4);
  grad.FillGaussian(&rng, 1.0f);

  std::vector<double> mean(64, 0.0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const std::vector<float> decoded =
        EncodeDecode(codec, grad, static_cast<uint64_t>(t));
    for (int i = 0; i < 64; ++i) mean[static_cast<size_t>(i)] += decoded[i];
  }
  double max_error = 0.0;
  for (int i = 0; i < 64; ++i) {
    max_error = std::max(max_error, std::abs(mean[static_cast<size_t>(i)] /
                                                 trials -
                                             grad.at(i)));
  }
  EXPECT_LT(max_error, 0.1);
}

TEST(AdaptiveQsgdTest, LowerVarianceThanUniformOnGaussianGradients) {
  // The ZipML rationale: data-adaptive levels reduce quantization variance
  // on concentrated distributions (the paper observed the accuracy benefit
  // was nonetheless insignificant — see bench_extension_adaptive_levels).
  const Shape shape({2048});
  Tensor grad(shape);
  Rng rng(5);
  grad.FillGaussian(&rng, 1.0f);

  auto mse_of = [&](const GradientCodec& codec) {
    double total = 0.0;
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
      const std::vector<float> decoded =
          EncodeDecode(codec, grad, static_cast<uint64_t>(t));
      for (int64_t i = 0; i < grad.size(); ++i) {
        const double d = decoded[static_cast<size_t>(i)] - grad.at(i);
        total += d * d;
      }
    }
    return total / trials;
  };

  AdaptiveQsgdCodec adaptive(4, 512, 1);
  CodecSpec uniform_spec = QsgdSpec(4);  // max norm, sign-magnitude
  uniform_spec.seed = 1;
  const QsgdCodec uniform(uniform_spec);
  EXPECT_LT(mse_of(adaptive), mse_of(uniform));
}

TEST(AdaptiveQsgdTest, ZeroGradientEncodesToZero) {
  AdaptiveQsgdCodec codec(4, 32, 1);
  const Shape shape({100});
  Tensor grad(shape);
  const std::vector<float> decoded = EncodeDecode(codec, grad, 9);
  for (float v : decoded) EXPECT_EQ(v, 0.0f);
}

TEST(AdaptiveQsgdTest, TwoBitDegeneratesToSignTimesMax) {
  // s = 1: levels {0, 1} only; every nonzero value rounds stochastically
  // between 0 and the bucket max.
  AdaptiveQsgdCodec codec(2, 64, 1);
  const Shape shape({64});
  Tensor grad(shape);
  Rng rng(6);
  grad.FillGaussian(&rng, 1.0f);
  const double scale = grad.AbsMax();
  const std::vector<float> decoded = EncodeDecode(codec, grad, 10);
  for (float v : decoded) {
    const double normalized = std::abs(v) / scale;
    EXPECT_TRUE(normalized < 1e-6 || std::abs(normalized - 1.0) < 1e-6);
  }
}

TEST(AdaptiveQsgdTest, FactoryParserAndLabels) {
  const CodecSpec spec = AdaptiveQsgdSpec(4);
  EXPECT_EQ(spec.Label(), "AdaptiveQSGD 4bit (b=512)");
  EXPECT_EQ(spec.ShortLabel(), "AQ4");
  EXPECT_TRUE(spec.Create().ok());

  auto parsed = CodecSpec::Parse("aq8:1024");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, CodecKind::kQsgdAdaptive);
  EXPECT_EQ(parsed->bits, 8);
  EXPECT_EQ(parsed->bucket_size, 1024);
  EXPECT_FALSE(CodecSpec::Parse("aq1").ok());
  EXPECT_FALSE(CodecSpec::Parse("aq").ok());
}

}  // namespace
}  // namespace lpsgd
