// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "base/simd/simd.h"
#include "im2col_reference.h"

namespace lpsgd {
namespace {

Tensor MakeTensor(Shape shape, std::vector<float> values) {
  Tensor t(std::move(shape));
  CHECK_EQ(t.size(), static_cast<int64_t>(values.size()));
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

TEST(GemmTest, PlainMultiply) {
  Tensor a = MakeTensor(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b = MakeTensor(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  Tensor c(Shape({2, 2}));
  Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(GemmTest, AlphaAndBeta) {
  Tensor a = MakeTensor(Shape({1, 2}), {1, 2});
  Tensor b = MakeTensor(Shape({2, 1}), {3, 4});
  Tensor c(Shape({1, 1}), 10.0f);
  Gemm(false, false, 2.0f, a, b, 0.5f, &c);
  EXPECT_FLOAT_EQ(c.at(0), 2.0f * 11.0f + 0.5f * 10.0f);
}

// The i-k-j loop Gemm was before it was blocked, kept verbatim as the
// golden reference: the blocked kernels must reproduce it byte for byte,
// for every ISA, transpose combination and shape.
void ReferenceGemm(bool transpose_a, bool transpose_b, float alpha,
                   const Tensor& a, const Tensor& b, float beta, Tensor* c) {
  const int64_t m = transpose_a ? a.cols() : a.rows();
  const int64_t k = transpose_a ? a.rows() : a.cols();
  const int64_t n = transpose_b ? b.rows() : b.cols();
  float* cd = c->data();
  if (beta == 0.0f) {
    std::fill(cd, cd + m * n, 0.0f);
  } else if (beta != 1.0f) {
    for (int64_t i = 0; i < m * n; ++i) cd[i] *= beta;
  }
  const float* ad = a.data();
  const float* bd = b.data();
  const int64_t lda = a.cols();
  const int64_t ldb = b.cols();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik =
          alpha * (transpose_a ? ad[kk * lda + i] : ad[i * lda + kk]);
      if (aik == 0.0f) continue;
      float* crow = cd + i * n;
      if (!transpose_b) {
        const float* brow = bd + kk * ldb;
        for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      } else {
        const float* bcol = bd + kk;  // stride ldb
        for (int64_t j = 0; j < n; ++j) crow[j] += aik * bcol[j * ldb];
      }
    }
  }
}

// The NaN an invalid operation (0 * inf) produces on this CPU. When both
// operands of an add or multiply are NaN, which payload survives depends on
// operand order, which the compiler may swap; if every NaN in the inputs
// is this one, every NaN in every result is too, and the byte comparison
// stays exact.
float HardwareNan() {
  volatile float zero = 0.0f;
  return zero * std::numeric_limits<float>::infinity();
}

struct GemmShape {
  int64_t m, k, n;
};

struct GemmScalars {
  float alpha, beta;
};

constexpr GemmScalars kAllScalars[] = {{1.0f, 0.0f}, {1.0f, 1.0f},
                                       {1.0f, 0.5f}, {0.5f, 0.0f},
                                       {0.5f, 1.0f}, {0.5f, 0.5f}};

std::vector<SimdIsa> IsasUnderTest() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  if (SimdIsaSupported(SimdIsa::kAvx2)) isas.push_back(SimdIsa::kAvx2);
  return isas;
}

// Random operands with the special values sprinkled in: A gets 0.0, -0.0
// (skipped updates) and NaN, B gets +-inf and NaN, and C starts with -0.0
// entries (which beta = 1 keeps and a skipped row must not flip).
void FillOperands(uint64_t seed, bool specials, Tensor* a, Tensor* b,
                  Tensor* c) {
  Rng rng(seed);
  auto pick = [&rng](const Tensor* t) {
    return static_cast<int64_t>(
        rng.NextUint64(static_cast<uint64_t>(t->size())));
  };
  a->FillGaussian(&rng, 1.0f);
  b->FillGaussian(&rng, 1.0f);
  c->FillGaussian(&rng, 1.0f);
  // Sparse zero runs, as after a ReLU.
  for (int64_t i = 0; i < a->size(); ++i) {
    if (rng.NextUint64(3) == 0) a->data()[i] = 0.0f;
  }
  for (int64_t i = 0; i < c->size(); i += 5) c->data()[i] = -0.0f;
  if (!specials) return;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = HardwareNan();
  a->data()[pick(a)] = -0.0f;
  a->data()[pick(a)] = nan;
  b->data()[pick(b)] = inf;
  b->data()[pick(b)] = -inf;
  b->data()[pick(b)] = nan;
}

// Runs one Gemm under every ISA and compares each output's bytes with the
// reference's.
void ExpectBitIdentical(bool ta, bool tb, GemmShape s, GemmScalars x,
                        uint64_t seed, bool specials) {
  Tensor a(ta ? Shape({s.k, s.m}) : Shape({s.m, s.k}));
  Tensor b(tb ? Shape({s.n, s.k}) : Shape({s.k, s.n}));
  Tensor c0(Shape({s.m, s.n}));
  FillOperands(seed, specials, &a, &b, &c0);
  Tensor expected = c0;
  ReferenceGemm(ta, tb, x.alpha, a, b, x.beta, &expected);
  for (const SimdIsa isa : IsasUnderTest()) {
    ScopedSimdIsa force(isa);
    Tensor got = c0;
    Gemm(ta, tb, x.alpha, a, b, x.beta, &got);
    ASSERT_EQ(std::memcmp(got.data(), expected.data(),
                          sizeof(float) * static_cast<size_t>(got.size())),
              0)
        << SimdIsaName(isa) << " ta=" << ta << " tb=" << tb << " m=" << s.m
        << " k=" << s.k << " n=" << s.n << " alpha=" << x.alpha
        << " beta=" << x.beta << " specials=" << specials;
  }
}

// Shapes straddling the 32-wide register tile, vector widths, and the
// panels (32 x 1024 for B, 128 x 256 for B^T).
std::vector<GemmShape> EdgeShapes() {
  std::vector<GemmShape> shapes;
  for (const int64_t m : {1, 3, 4, 5, 17}) {
    for (const int64_t n :
         {1, 7, 8, 15, 16, 17, 27, 31, 32, 33, 256, 257, 1024, 1025}) {
      for (const int64_t k : {1, 27, 32, 33, 128, 129, 1024}) {
        shapes.push_back({m, k, n});
      }
    }
  }
  return shapes;
}

void AddDense(int64_t batch, int64_t in, int64_t out,
              std::vector<GemmShape>* shapes) {
  // y = x W^T, dW += dy^T x, dx = dy W.
  shapes->push_back({batch, in, out});
  shapes->push_back({out, batch, in});
  shapes->push_back({batch, out, in});
}

void AddConv(int64_t in_channels, int64_t out_channels, int64_t plane,
             std::vector<GemmShape>* shapes) {
  // 3x3 kernels over im2col patches {plane x in_channels * 9}:
  // out = W patches^T, dW += dout patches, dpatches = dout^T W.
  const int64_t patch = in_channels * 9;
  shapes->push_back({out_channels, patch, plane});
  shapes->push_back({out_channels, plane, patch});
  shapes->push_back({plane, out_channels, patch});
}

void AddLstm(int64_t batch, int64_t in, int64_t hidden,
             std::vector<GemmShape>* shapes) {
  // gates = x Wx^T + h Wh^T; dWx += dgates^T x; dx = dgates Wx (and the
  // same for Wh).
  for (const int64_t width : {in, hidden}) {
    shapes->push_back({batch, width, 4 * hidden});
    shapes->push_back({4 * hidden, batch, width});
    shapes->push_back({batch, 4 * hidden, width});
  }
}

// Every Gemm the benchmark's model-zoo networks run, at their per-rank
// batch sizes.
std::vector<GemmShape> ModelShapes() {
  std::vector<GemmShape> shapes;
  // BuildMlp({256, 1024, 1024, 10}), batch 4.
  AddDense(4, 256, 1024, &shapes);
  AddDense(4, 1024, 1024, &shapes);
  AddDense(4, 1024, 10, &shapes);
  // BuildMiniResNet(3, 16, 2, 16, 10), batch 16: stem, block convs, fc.
  AddConv(3, 16, 16 * 16, &shapes);
  AddConv(16, 16, 16 * 16, &shapes);
  AddDense(16, 16, 10, &shapes);
  // BuildDeepLstmClassifier(32, 64, 2, 8), batch 8.
  AddLstm(8, 32, 64, &shapes);
  AddLstm(8, 64, 64, &shapes);
  AddDense(8, 64, 8, &shapes);
  // BuildMiniAlexNet(3, 32, 10), batch 8: conv1, conv2, fc1, fc2.
  AddConv(3, 8, 32 * 32, &shapes);
  AddConv(8, 16, 16 * 16, &shapes);
  AddDense(8, 16 * 8 * 8, 64, &shapes);
  AddDense(8, 64, 10, &shapes);
  return shapes;
}

TEST(GemmBitExactTest, EdgeShapesMatchReference) {
  // Every shape and transpose combination, cycling through the scalar
  // pairs; every other case carries the special values.
  uint64_t seed = 1;
  for (const GemmShape& s : EdgeShapes()) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const GemmScalars x = kAllScalars[seed % std::size(kAllScalars)];
        ASSERT_NO_FATAL_FAILURE(
            ExpectBitIdentical(ta, tb, s, x, seed, seed % 2 == 0));
        ++seed;
      }
    }
  }
}

TEST(GemmBitExactTest, EveryScalarPairOnPanelEdges) {
  uint64_t seed = 100;
  for (const GemmShape s : {GemmShape{5, 129, 17}, GemmShape{17, 257, 33},
                            GemmShape{3, 1, 257}, GemmShape{4, 33, 1025}}) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        for (const GemmScalars x : kAllScalars) {
          for (const bool specials : {false, true}) {
            ASSERT_NO_FATAL_FAILURE(
                ExpectBitIdentical(ta, tb, s, x, seed++, specials));
          }
        }
      }
    }
  }
}

TEST(GemmBitExactTest, ModelShapesMatchReference) {
  uint64_t seed = 1000;
  for (const GemmShape& s : ModelShapes()) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        for (const float beta : {0.0f, 1.0f}) {
          ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(
              ta, tb, s, {1.0f, beta}, seed, seed % 2 == 0));
          ++seed;
        }
      }
    }
  }
}

TEST(GemmBitExactTest, NanInANotSkippedAndSignedZeroSkipped) {
  // Row 0 of A is all -0.0: every update is skipped, so C keeps its
  // entries, -0.0 included, even against inf in B. Row 1 has a NaN, which
  // is not skipped and poisons the row.
  Tensor a = MakeTensor(Shape({2, 2}), {-0.0f, -0.0f, 1.0f, HardwareNan()});
  const float inf = std::numeric_limits<float>::infinity();
  Tensor b = MakeTensor(Shape({2, 2}), {inf, 1.0f, -inf, 2.0f});
  for (const SimdIsa isa : IsasUnderTest()) {
    ScopedSimdIsa force(isa);
    Tensor c = MakeTensor(Shape({2, 2}), {-0.0f, 3.0f, 0.0f, 0.0f});
    Gemm(false, false, 1.0f, a, b, 1.0f, &c);
    EXPECT_TRUE(std::signbit(c.at(0, 0))) << SimdIsaName(isa);
    EXPECT_EQ(c.at(0, 0), 0.0f);
    EXPECT_EQ(c.at(0, 1), 3.0f);
    EXPECT_TRUE(std::isnan(c.at(1, 0)));
    EXPECT_TRUE(std::isnan(c.at(1, 1)));
  }
}

TEST(GemmBitExactTest, EmptyInnerDimensionOnlyScalesC) {
  Tensor a(Shape({3, 0}));
  Tensor b(Shape({0, 2}));
  Tensor c(Shape({3, 2}), 4.0f);
  Gemm(false, false, 1.0f, a, b, 0.5f, &c);
  for (int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 2.0f);
}

TEST(AxpyTest, AddsScaled) {
  Tensor x = MakeTensor(Shape({3}), {1, 2, 3});
  Tensor y = MakeTensor(Shape({3}), {10, 20, 30});
  Axpy(2.0f, x, &y);
  EXPECT_FLOAT_EQ(y.at(0), 12.0f);
  EXPECT_FLOAT_EQ(y.at(2), 36.0f);
}

TEST(ScaleTest, Scales) {
  Tensor x = MakeTensor(Shape({2}), {3, -4});
  Scale(0.5f, &x);
  EXPECT_FLOAT_EQ(x.at(0), 1.5f);
  EXPECT_FLOAT_EQ(x.at(1), -2.0f);
}

TEST(AddRowBroadcastTest, AddsBiasToEveryRow) {
  Tensor x(Shape({2, 3}));
  Tensor bias = MakeTensor(Shape({3}), {1, 2, 3});
  AddRowBroadcast(bias, &x);
  for (int r = 0; r < 2; ++r) {
    EXPECT_FLOAT_EQ(x.at(r, 0), 1.0f);
    EXPECT_FLOAT_EQ(x.at(r, 1), 2.0f);
    EXPECT_FLOAT_EQ(x.at(r, 2), 3.0f);
  }
}

TEST(SumRowsToTest, ComputesColumnSums) {
  Tensor grad = MakeTensor(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor bias_grad(Shape({3}));
  SumRowsTo(grad, &bias_grad);
  EXPECT_FLOAT_EQ(bias_grad.at(0), 5.0f);
  EXPECT_FLOAT_EQ(bias_grad.at(1), 7.0f);
  EXPECT_FLOAT_EQ(bias_grad.at(2), 9.0f);
}

TEST(SoftmaxRowsTest, RowsSumToOneAndOrderPreserved) {
  Tensor logits = MakeTensor(Shape({2, 3}), {1, 2, 3, -1, -1, -1});
  Tensor probs(logits.shape());
  SoftmaxRows(logits, &probs);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += probs.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_GT(probs.at(0, 2), probs.at(0, 1));
  EXPECT_GT(probs.at(0, 1), probs.at(0, 0));
  EXPECT_NEAR(probs.at(1, 0), 1.0f / 3.0f, 1e-5);
}

TEST(SoftmaxRowsTest, NumericallyStableForLargeLogits) {
  Tensor logits = MakeTensor(Shape({1, 2}), {1000.0f, 999.0f});
  Tensor probs(logits.shape());
  SoftmaxRows(logits, &probs);
  EXPECT_FALSE(std::isnan(probs.at(0)));
  EXPECT_NEAR(probs.at(0, 0) + probs.at(0, 1), 1.0f, 1e-5);
  EXPECT_GT(probs.at(0, 0), probs.at(0, 1));
}

TEST(ConvOutputSizeTest, MatchesFormula) {
  EXPECT_EQ(ConvOutputSize(8, 3, 1, 1), 8);
  EXPECT_EQ(ConvOutputSize(8, 2, 2, 0), 4);
  EXPECT_EQ(ConvOutputSize(5, 3, 2, 0), 2);
  EXPECT_EQ(ConvOutputSize(7, 7, 1, 0), 1);
}

TEST(Im2ColTest, IdentityKernelExtractsPixels) {
  // 1x1 kernel, stride 1: patches are just the pixels.
  Tensor image = MakeTensor(Shape({1, 2, 2}), {1, 2, 3, 4});
  Tensor patches(Shape({4, 1}));
  Im2Col(image.data(), 1, 2, 2, 1, 1, 1, 0, patches.data());
  EXPECT_FLOAT_EQ(patches.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(patches.at(3, 0), 4.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  Tensor image = MakeTensor(Shape({1, 1, 1}), {5});
  Tensor patches(Shape({1, 9}));
  Im2Col(image.data(), 1, 1, 1, 3, 3, 1, 1, patches.data());
  // Center of the 3x3 patch is the pixel; everything else is padding.
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(patches.at(0, i), i == 4 ? 5.0f : 0.0f);
  }
}

TEST(Im2ColTest, MultiChannelLayout) {
  // Two channels, 2x2 image, 2x2 kernel: a single patch listing channel 0's
  // values then channel 1's.
  Tensor image = MakeTensor(Shape({2, 2, 2}), {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor patches(Shape({1, 8}));
  Im2Col(image.data(), 2, 2, 2, 2, 2, 1, 0, patches.data());
  const float expected[] = {1, 2, 3, 4, 10, 20, 30, 40};
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(patches.at(0, i), expected[i]);
}

TEST(Col2ImTest, IsTransposeOfIm2Col) {
  // <x, Im2Col(y)> == <Col2Im(x), y> for random x, y (adjoint property).
  Rng rng(77);
  Tensor image(Shape({2, 5, 4}));
  image.FillGaussian(&rng, 1.0f);
  const int kh = 3, kw = 2, stride = 2, pad = 1;
  const int out_h = ConvOutputSize(5, kh, stride, pad);
  const int out_w = ConvOutputSize(4, kw, stride, pad);
  Tensor patches(Shape({int64_t{out_h} * out_w, 2 * kh * kw}));
  Im2Col(image.data(), 2, 5, 4, kh, kw, stride, pad, patches.data());

  Tensor random_patches(patches.shape());
  random_patches.FillGaussian(&rng, 1.0f);
  Tensor back(image.shape());
  Col2Im(random_patches.data(), 2, 5, 4, kh, kw, stride, pad, back.data());

  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < patches.size(); ++i) {
    lhs += static_cast<double>(random_patches.at(i)) * patches.at(i);
  }
  for (int64_t i = 0; i < image.size(); ++i) {
    rhs += static_cast<double>(back.at(i)) * image.at(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ArgMaxRowTest, FindsFirstMaximum) {
  Tensor x = MakeTensor(Shape({2, 4}), {1, 9, 9, 0, -5, -2, -9, -2});
  EXPECT_EQ(ArgMaxRow(x, 0), 1);  // first of the tied maxima
  EXPECT_EQ(ArgMaxRow(x, 1), 1);
}

}  // namespace
}  // namespace lpsgd
