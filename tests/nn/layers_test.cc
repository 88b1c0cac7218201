// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/elementwise.h"
#include "base/simd/simd.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/pool.h"

namespace lpsgd {
namespace {

TEST(DenseLayerTest, ComputesAffineMap) {
  Rng rng(1);
  DenseLayer layer("fc", 2, 3, &rng);
  std::vector<ParamRef> params;
  layer.CollectParams(&params);
  ASSERT_EQ(params.size(), 2u);
  // Set W = [[1,0],[0,1],[1,1]] and b = [0.5, -0.5, 0].
  Tensor& w = *params[0].value;
  w.at(0, 0) = 1;
  w.at(0, 1) = 0;
  w.at(1, 0) = 0;
  w.at(1, 1) = 1;
  w.at(2, 0) = 1;
  w.at(2, 1) = 1;
  Tensor& b = *params[1].value;
  b.at(0) = 0.5f;
  b.at(1) = -0.5f;

  Tensor input(Shape({1, 2}));
  input.at(0) = 2.0f;
  input.at(1) = 3.0f;
  Tensor out = layer.Forward(input, true);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 2.5f);
  EXPECT_FLOAT_EQ(out.at(0, 2), 5.0f);
}

TEST(DenseLayerTest, ParamMetadata) {
  Rng rng(1);
  DenseLayer layer("fc6", 9216, 4096, &rng);
  std::vector<ParamRef> params;
  layer.CollectParams(&params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "fc6/W");
  EXPECT_EQ(params[0].kind, ParamKind::kFullyConnected);
  // Dense quantization columns have out_features elements (large).
  EXPECT_EQ(params[0].quant_shape.rows(), 4096);
  EXPECT_EQ(params[1].kind, ParamKind::kBias);
}

TEST(ActivationLayerTest, ReluClampsNegatives) {
  ActivationLayer relu("relu", ActivationKind::kRelu);
  Tensor input(Shape({1, 4}));
  input.at(0) = -1.0f;
  input.at(1) = 0.0f;
  input.at(2) = 2.0f;
  input.at(3) = -0.5f;
  Tensor out = relu.Forward(input, true);
  EXPECT_FLOAT_EQ(out.at(0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(2), 2.0f);

  Tensor grad(Shape({1, 4}), 1.0f);
  Tensor in_grad = relu.Backward(grad);
  EXPECT_FLOAT_EQ(in_grad.at(0), 0.0f);  // blocked where output <= 0
  EXPECT_FLOAT_EQ(in_grad.at(2), 1.0f);
}

TEST(ActivationLayerTest, ReluMatchesBranchyLoopOnSpecialValues) {
  // ReLU is a select now; the reference is the loop it replaced, which
  // branched on the sign: forward zeroes x < 0, backward zeroes the grad
  // where out <= 0. NaN, -0, +-inf and denormals must come out the same,
  // at every position of a vector (1001 elements: a ragged tail).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f, -0.0f, inf,      -inf,
                            nan,  -nan,  denormal, -denormal,
                            1.5f, -2.5f, 1e-39f,   -1e-39f};
  const int64_t n = 1001;
  Tensor input(Shape({7, n / 7}));
  Tensor grad(input.shape());
  for (int64_t i = 0; i < n; ++i) {
    input.at(i) = specials[i % std::size(specials)];
    // The grad cycle shifts by one each time the input cycle restarts,
    // so every (input, grad) pairing occurs.
    grad.at(i) = specials[(i / std::size(specials) + 5 * i) %
                          std::size(specials)];
  }

  Tensor expected_out = input;
  for (int64_t i = 0; i < n; ++i) {
    if (expected_out.at(i) < 0.0f) expected_out.at(i) = 0.0f;
  }
  Tensor expected_grad = grad;
  for (int64_t i = 0; i < n; ++i) {
    if (expected_out.at(i) <= 0.0f) expected_grad.at(i) = 0.0f;
  }

  ActivationLayer relu("relu", ActivationKind::kRelu);
  const Tensor out = relu.Forward(input, true);
  const Tensor in_grad = relu.Backward(grad);
  const size_t bytes = static_cast<size_t>(n) * sizeof(float);
  EXPECT_EQ(std::memcmp(out.data(), expected_out.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(in_grad.data(), expected_grad.data(), bytes), 0);
}

TEST(ActivationLayerTest, SigmoidAndTanhForwardIsTheSameUnderEveryIsa) {
  // The forward passes run the elementwise tanh_f32 / sigmoid_f32 slots:
  // the AVX2 ones must give the scalar (libm) bytes on the values their
  // vector paths hand back to libm, at every position of a ragged tensor.
  // The layer runs the slot in place; the slots are also run out of place.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f,  -0.0f,     inf,       -inf,   nan,
                            -nan,  denormal,  -denormal, 1e-39f, -1e-39f,
                            88.5f, -88.5f,    100.0f,    -90.0f, 0.75f,
                            -3.0f, 21.99f,    -22.5f,    1e-20f, -1e-30f};
  const int64_t n = 1001;
  Tensor input(Shape({7, n / 7}));
  for (int64_t i = 0; i < n; ++i) {
    input.at(i) = specials[(i + i / 8) % std::size(specials)];
  }
  const size_t bytes = static_cast<size_t>(n) * sizeof(float);
  for (const ActivationKind kind :
       {ActivationKind::kTanh, ActivationKind::kSigmoid}) {
    ActivationLayer layer("act", kind);
    const auto slot = kind == ActivationKind::kTanh
                          ? &ElementwiseKernels::tanh_f32
                          : &ElementwiseKernels::sigmoid_f32;
    Tensor expected;
    {
      ScopedSimdIsa force(SimdIsa::kScalar);
      expected = layer.Forward(input, true);
    }
    for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
      SCOPED_TRACE(SimdIsaName(isa));
      ScopedSimdIsa force(isa);
      const Tensor out = layer.Forward(input, false);
      EXPECT_EQ(std::memcmp(out.data(), expected.data(), bytes), 0);
      Tensor out_of_place(input.shape());
      (ActiveElementwiseKernels().*slot)(input.data(), out_of_place.data(),
                                         n);
      EXPECT_EQ(std::memcmp(out_of_place.data(), expected.data(), bytes), 0);
    }
  }
}

TEST(ActivationLayerTest, SigmoidAndTanhRanges) {
  ActivationLayer sigmoid("s", ActivationKind::kSigmoid);
  ActivationLayer tanh_layer("t", ActivationKind::kTanh);
  Tensor input(Shape({1, 2}));
  input.at(0) = 100.0f;
  input.at(1) = -100.0f;
  Tensor s = sigmoid.Forward(input, true);
  EXPECT_NEAR(s.at(0), 1.0f, 1e-5);
  EXPECT_NEAR(s.at(1), 0.0f, 1e-5);
  Tensor t = tanh_layer.Forward(input, true);
  EXPECT_NEAR(t.at(0), 1.0f, 1e-5);
  EXPECT_NEAR(t.at(1), -1.0f, 1e-5);
}

TEST(Conv2dLayerTest, IdentityKernelCopiesInput) {
  Rng rng(3);
  Conv2dLayer conv("conv", 1, 1, 1, 1, 0, &rng);
  std::vector<ParamRef> params;
  conv.CollectParams(&params);
  params[0].value->Fill(1.0f);  // 1x1 kernel = identity
  params[1].value->SetZero();

  Tensor input(Shape({1, 1, 2, 2}));
  for (int i = 0; i < 4; ++i) input.at(i) = static_cast<float>(i + 1);
  Tensor out = conv.Forward(input, true);
  EXPECT_EQ(out.shape(), input.shape());
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out.at(i), input.at(i));
}

TEST(Conv2dLayerTest, KnownThreeByThreeSum) {
  Rng rng(3);
  Conv2dLayer conv("conv", 1, 1, 3, 1, 1, &rng);
  std::vector<ParamRef> params;
  conv.CollectParams(&params);
  params[0].value->Fill(1.0f);  // box filter
  params[1].value->SetZero();

  Tensor input(Shape({1, 1, 3, 3}), 1.0f);
  Tensor out = conv.Forward(input, true);
  // Center pixel sees all 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(out.at(1 * 3 + 1), 9.0f);  // center pixel
  EXPECT_FLOAT_EQ(out.at(0), 4.0f);          // corner pixel
}

TEST(Conv2dLayerTest, QuantShapeExposesKernelWidthAsRows) {
  Rng rng(3);
  Conv2dLayer conv("conv", 64, 128, 3, 1, 1, &rng);
  std::vector<ParamRef> params;
  conv.CollectParams(&params);
  // The CNTK layout that makes stock 1bitSGD pathological: rows = 3.
  EXPECT_EQ(params[0].quant_shape.rows(), 3);
  EXPECT_EQ(params[0].quant_shape.element_count(), 3 * 3 * 64 * 128);
  EXPECT_EQ(params[0].kind, ParamKind::kConvolutional);
}

TEST(MaxPool2dLayerTest, PicksWindowMaximaAndRoutesGradients) {
  MaxPool2dLayer pool("pool", 2, 2);
  Tensor input(Shape({1, 1, 2, 4}));
  const float values[] = {1, 5, 2, 3, 4, 0, 9, 8};
  std::copy(values, values + 8, input.data());
  Tensor out = pool.Forward(input, true);
  EXPECT_EQ(out.shape(), Shape({1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1), 9.0f);

  Tensor grad(out.shape());
  grad.at(0) = 10.0f;
  grad.at(1) = 20.0f;
  Tensor in_grad = pool.Backward(grad);
  EXPECT_FLOAT_EQ(in_grad.at(1), 10.0f);  // position of the 5
  EXPECT_FLOAT_EQ(in_grad.at(6), 20.0f);  // position of the 9
  EXPECT_FLOAT_EQ(in_grad.at(0), 0.0f);
}

TEST(GlobalAvgPoolLayerTest, AveragesPlanes) {
  GlobalAvgPoolLayer gap("gap");
  Tensor input(Shape({1, 2, 2, 2}));
  for (int i = 0; i < 4; ++i) input.at(i) = 2.0f;        // channel 0
  for (int i = 4; i < 8; ++i) input.at(i) = float(i);    // channel 1: 4..7
  Tensor out = gap.Forward(input, true);
  EXPECT_EQ(out.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(1), 5.5f);
}

TEST(FlattenLayerTest, RoundTripsShape) {
  FlattenLayer flatten("flat");
  Tensor input(Shape({2, 3, 4, 5}));
  Tensor out = flatten.Forward(input, true);
  EXPECT_EQ(out.shape(), Shape({2, 60}));
  Tensor grad(out.shape());
  Tensor in_grad = flatten.Backward(grad);
  EXPECT_EQ(in_grad.shape(), input.shape());
}

TEST(BatchNormLayerTest, NormalizesPerChannelInTraining) {
  BatchNormLayer bn("bn", 2);
  Rng rng(5);
  Tensor input(Shape({8, 2}));
  for (int64_t r = 0; r < 8; ++r) {
    input.at(r, 0) = static_cast<float>(rng.NextGaussian() * 3.0 + 10.0);
    input.at(r, 1) = static_cast<float>(rng.NextGaussian() * 0.5 - 4.0);
  }
  Tensor out = bn.Forward(input, /*training=*/true);
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (int64_t r = 0; r < 8; ++r) mean += out.at(r, c);
    mean /= 8;
    for (int64_t r = 0; r < 8; ++r) {
      var += (out.at(r, c) - mean) * (out.at(r, c) - mean);
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormLayerTest, EvalUsesRunningStatistics) {
  BatchNormLayer bn("bn", 1);
  Tensor input(Shape({4, 1}));
  input.at(0) = 1;
  input.at(1) = 2;
  input.at(2) = 3;
  input.at(3) = 4;
  // Several training passes to move the running stats toward the batch
  // statistics (momentum 0.9).
  for (int i = 0; i < 50; ++i) bn.Forward(input, true);
  Tensor eval_out = bn.Forward(input, /*training=*/false);
  // Eval normalization with running stats should roughly center the data.
  double mean = 0.0;
  for (int i = 0; i < 4; ++i) mean += eval_out.at(i);
  EXPECT_NEAR(mean / 4.0, 0.0, 0.05);
}

TEST(LstmLayerTest, OutputShapeAndDeterminism) {
  Rng rng(9);
  LstmLayer lstm("lstm", 4, 6, &rng);
  Tensor input(Shape({3, 5, 4}));
  Rng data_rng(10);
  input.FillGaussian(&data_rng, 1.0f);
  Tensor out1 = lstm.Forward(input, true);
  Tensor out2 = lstm.Forward(input, true);
  EXPECT_EQ(out1.shape(), Shape({3, 6}));
  for (int64_t i = 0; i < out1.size(); ++i) {
    EXPECT_EQ(out1.at(i), out2.at(i));
  }
}

TEST(LstmLayerTest, HiddenStateBounded) {
  // h = o * tanh(c) with o in (0,1): |h| < 1 always.
  Rng rng(11);
  LstmLayer lstm("lstm", 3, 5, &rng);
  Tensor input(Shape({2, 20, 3}));
  Rng data_rng(12);
  input.FillGaussian(&data_rng, 5.0f);
  Tensor out = lstm.Forward(input, true);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_LT(std::abs(out.at(i)), 1.0f);
  }
}

TEST(LstmLayerTest, SequenceOrderMatters) {
  Rng rng(13);
  LstmLayer lstm("lstm", 2, 4, &rng);
  Tensor input(Shape({1, 3, 2}));
  for (int i = 0; i < 6; ++i) input.at(i) = static_cast<float>(i);
  Tensor forward_out = lstm.Forward(input, true);

  Tensor reversed(Shape({1, 3, 2}));
  for (int t = 0; t < 3; ++t) {
    for (int d = 0; d < 2; ++d) {
      reversed.at(t * 2 + d) = input.at((2 - t) * 2 + d);
    }
  }
  Tensor reversed_out = lstm.Forward(reversed, true);
  bool any_diff = false;
  for (int64_t i = 0; i < forward_out.size(); ++i) {
    if (std::abs(forward_out.at(i) - reversed_out.at(i)) > 1e-6) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(LstmLayerDeathTest, BackwardBatchMustMatchForward) {
  Rng rng(14);
  LstmLayer lstm("lstm", 3, 4, &rng);
  const Tensor input(Shape({3, 5, 3}), 1.0f);
  lstm.Forward(input, /*training=*/true);
  // Two rows of gradient for a three-sample Forward.
  const Tensor grad(Shape({2, 4}), 1.0f);
  EXPECT_DEATH(lstm.Backward(grad), "batch differs from Forward");
}

TEST(LstmLayerDeathTest, SecondBackwardPerForwardFails) {
  Rng rng(15);
  LstmLayer lstm("lstm", 3, 4, &rng, /*return_sequences=*/true);
  const Tensor input(Shape({2, 5, 3}), 1.0f);
  const Tensor grad(Shape({2, 5, 4}), 1.0f);
  EXPECT_DEATH(lstm.Backward(grad), "caches no Backward has consumed");
  lstm.Forward(input, /*training=*/true);
  lstm.Backward(grad);
  // The first Backward overwrote the cached gates with their gradients.
  EXPECT_DEATH(lstm.Backward(grad), "caches no Backward has consumed");
}

}  // namespace
}  // namespace lpsgd
