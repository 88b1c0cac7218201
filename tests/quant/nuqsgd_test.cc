// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/nuqsgd.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

std::vector<float> EncodeDecode(const NuqsgdCodec& codec, const Tensor& grad,
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

TEST(NuqsgdCodecTest, DecodedValuesLieOnTheExponentialGrid) {
  CodecWorkspace workspace;
  // 4 bits -> s = 7 nonzero levels 2^-6 .. 2^0, scaled by the bucket's L2
  // norm. Every decoded magnitude must be exactly scale * 2^(j - s).
  NuqsgdCodec codec(/*bits=*/4, /*bucket_size=*/512, /*seed=*/1);
  const Shape shape({100});
  Tensor grad(shape);
  Rng rng(2);
  grad.FillGaussian(&rng, 1.0f);

  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, 5, nullptr, &workspace, &blob);
  float scale;  // single bucket: first word is the L2 norm
  std::memcpy(&scale, blob.data(), sizeof(float));
  double sum_sq = 0.0;
  for (int64_t i = 0; i < 100; ++i) {
    sum_sq += static_cast<double>(grad.at(i)) * grad.at(i);
  }
  EXPECT_FLOAT_EQ(scale, static_cast<float>(std::sqrt(sum_sq)));

  std::vector<float> decoded(100);
  CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()),
                        shape, &workspace, decoded.data()));
  const int s = 7;
  for (int64_t i = 0; i < 100; ++i) {
    const float d = std::abs(decoded[static_cast<size_t>(i)]);
    if (d == 0.0f) continue;
    bool on_grid = false;
    for (int j = 1; j <= s; ++j) {
      const float level =
          scale * static_cast<float>(std::ldexp(1.0, j - s));
      if (d == level) on_grid = true;
    }
    EXPECT_TRUE(on_grid) << i << ": " << d << " (scale " << scale << ")";
  }
}

TEST(NuqsgdCodecTest, SingleNonzeroComponentIsExact) {
  // One nonzero element: its normalized magnitude is exactly 1 = l_s, the
  // top level, so the round trip is deterministic and lossless.
  NuqsgdCodec codec(4, 512, 1);
  const Shape shape({32});
  Tensor grad(shape);
  grad.SetZero();
  grad.at(13) = -3.25f;

  for (uint64_t tag = 0; tag < 8; ++tag) {
    const std::vector<float> decoded = EncodeDecode(codec, grad, tag);
    EXPECT_FLOAT_EQ(decoded[13], -3.25f) << tag;
    for (int64_t i = 0; i < 32; ++i) {
      if (i != 13) {
        EXPECT_EQ(decoded[static_cast<size_t>(i)], 0.0f) << i;
      }
    }
  }
}

TEST(NuqsgdCodecTest, StochasticRoundingIsUnbiased) {
  NuqsgdCodec codec(4, 512, 1);
  const Shape shape({16});
  Tensor grad(shape);
  Rng rng(3);
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

TEST(NuqsgdCodecTest, WireLayoutMatchesQsgd) {
  // Same skeleton as QSGD: scale words + bits-wide fields + checksum, so
  // the encoded size matches QSGD's at every (bits, bucket) setting.
  for (int bits : {2, 4, 8}) {
    NuqsgdCodec nuq(bits, 64, 1);
    CodecSpec q = QsgdSpec(bits);
    q.bucket_size = 64;
    auto qsgd = q.Create();
    ASSERT_TRUE(qsgd.ok());
    const Shape shape({1000});
    EXPECT_EQ(nuq.EncodedSizeBytes(shape), (*qsgd)->EncodedSizeBytes(shape))
        << bits;
    EXPECT_EQ(nuq.NumChunks(shape), (*qsgd)->NumChunks(shape)) << bits;
  }
}

TEST(NuqsgdCodecTest, ZeroBucketsRoundTripToZero) {
  NuqsgdCodec codec(4, 16, 1);
  const Shape shape({64});
  Tensor grad(shape);
  grad.SetZero();
  const std::vector<float> decoded = EncodeDecode(codec, grad, 9);
  for (float d : decoded) EXPECT_EQ(d, 0.0f);
}

TEST(NuqsgdCodecTest, FactoryAndSpec) {
  const CodecSpec spec = NuqsgdSpec(4);
  EXPECT_EQ(spec.bucket_size, 512);  // inherits the paper bucket defaults
  EXPECT_EQ(spec.norm, QsgdNorm::kL2);
  auto codec = spec.Create();
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ((*codec)->Name(), "NUQSGD 4bit (b=512)");
  EXPECT_FALSE((*codec)->UsesErrorFeedback());

  CodecSpec bad = NuqsgdSpec(4);
  bad.bits = 1;
  EXPECT_FALSE(bad.Create().ok());
  bad = NuqsgdSpec(4);
  bad.bucket_size = 0;
  EXPECT_FALSE(bad.Create().ok());
}

}  // namespace
}  // namespace lpsgd
