// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/ecq_sgd.h"

#include <cmath>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

std::vector<float> EncodeDecode(const EcqSgdCodec& codec, const Tensor& grad,
                                uint64_t tag, std::vector<float>* error) {
  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), grad.shape(), tag, error, &workspace, &blob);
  EXPECT_EQ(static_cast<int64_t>(blob.size()),
            codec.EncodedSizeBytes(grad.shape()));
  std::vector<float> decoded(static_cast<size_t>(grad.size()));
  CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()),
                        grad.shape(), &workspace, decoded.data()));
  return decoded;
}

TEST(EcqSgdCodecTest, FreshErrorStateMatchesQsgdExactly) {
  CodecWorkspace workspace;
  // With a zero residual, the corrected gradient is the gradient: the blob
  // must be byte-identical to plain QSGD at the same settings. ECQ-SGD is
  // QSGD plus compensation, nothing else.
  const Shape shape({200});
  Tensor grad(shape);
  Rng rng(1);
  grad.FillGaussian(&rng, 1.0f);

  CodecSpec e = EcqSgdSpec(4);
  e.bucket_size = 64;  // same default seed as the QSGD spec below
  auto ecq = e.Create();
  ASSERT_TRUE(ecq.ok());
  std::vector<float> error(200, 0.0f);
  std::vector<uint8_t> ecq_blob;
  (*ecq)->Encode(grad.data(), shape, 42, &error, &workspace, &ecq_blob);

  CodecSpec q = QsgdSpec(4);
  q.bucket_size = 64;
  auto qsgd = q.Create();
  ASSERT_TRUE(qsgd.ok());
  std::vector<uint8_t> qsgd_blob;
  (*qsgd)->Encode(grad.data(), shape, 42, nullptr, &workspace, &qsgd_blob);

  EXPECT_EQ(ecq_blob, qsgd_blob);
}

TEST(EcqSgdCodecTest, ResidualIsExactQuantizationError) {
  // After an encode, error[i] holds exactly v[i] - Q(v)[i], computed with
  // the same dequantization table Decode uses — so decoded + error
  // reconstructs the corrected gradient bit-for-bit.
  const Shape shape({128});
  Tensor grad(shape);
  Rng rng(2);
  grad.FillGaussian(&rng, 1.0f);

  EcqSgdCodec codec(4, 64, true, 0);
  std::vector<float> error(128, 0.0f);
  const std::vector<float> decoded = EncodeDecode(codec, grad, 7, &error);
  for (int64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(error[static_cast<size_t>(i)],
              grad.at(i) - decoded[static_cast<size_t>(i)])
        << i;
  }
}

TEST(EcqSgdCodecTest, RunningSumPreservedWithCompensation) {
  // Telescoping invariant: sum of decoded gradients + final residual ==
  // sum of true gradients (g_t = Q(v_t) + e_t - e_{t-1}).
  EcqSgdCodec codec(2, 32, true, 0);
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
    const std::vector<float> decoded =
        EncodeDecode(codec, grad, static_cast<uint64_t>(iter), &error);
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

TEST(EcqSgdCodecTest, CompensationShrinksCumulativeError) {
  // The point of ECQ-SGD: at an aggressive 2-bit setting, the compensated
  // cumulative decoded sum tracks the true sum much closer than the
  // uncompensated one.
  const Shape shape({64});
  const int iterations = 200;

  auto run = [&](bool error_feedback) {
    EcqSgdCodec codec(2, 32, error_feedback, 0);
    Rng rng(4);
    std::vector<float> error(64, 0.0f);
    std::vector<double> true_sum(64, 0.0), decoded_sum(64, 0.0);
    Tensor grad(shape);
    for (int iter = 0; iter < iterations; ++iter) {
      grad.FillGaussian(&rng, 1.0f);
      for (int64_t i = 0; i < 64; ++i) {
        true_sum[static_cast<size_t>(i)] += grad.at(i);
      }
      const std::vector<float> decoded =
          EncodeDecode(codec, grad, static_cast<uint64_t>(iter),
                       error_feedback ? &error : nullptr);
      for (int64_t i = 0; i < 64; ++i) {
        decoded_sum[static_cast<size_t>(i)] +=
            decoded[static_cast<size_t>(i)];
      }
    }
    double err = 0.0;
    for (int64_t i = 0; i < 64; ++i) {
      const double d = decoded_sum[static_cast<size_t>(i)] -
                       true_sum[static_cast<size_t>(i)];
      err += d * d;
    }
    return std::sqrt(err / 64);
  };

  EXPECT_LT(run(/*error_feedback=*/true), run(/*error_feedback=*/false));
}

TEST(EcqSgdCodecTest, FactoryAndSpec) {
  const CodecSpec spec = EcqSgdSpec(4);
  EXPECT_EQ(spec.bucket_size, 512);
  EXPECT_TRUE(spec.error_feedback);
  auto codec = spec.Create();
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ((*codec)->Name(), "ECQ-SGD 4bit (b=512)");
  EXPECT_TRUE((*codec)->UsesErrorFeedback());

  CodecSpec no_ef = EcqSgdSpec(4);
  no_ef.error_feedback = false;
  auto plain = no_ef.Create();
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE((*plain)->UsesErrorFeedback());

  CodecSpec bad = EcqSgdSpec(4);
  bad.bits = 17;
  EXPECT_FALSE(bad.Create().ok());
  bad = EcqSgdSpec(4);
  bad.bucket_size = -3;
  EXPECT_FALSE(bad.Create().ok());
}

}  // namespace
}  // namespace lpsgd
