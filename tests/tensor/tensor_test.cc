// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "tensor/tensor.h"

#include <cmath>

#include <gtest/gtest.h>

namespace lpsgd {
namespace {

TEST(TensorTest, ConstructedZeroInitialized) {
  Tensor t(Shape({2, 3}));
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, FillConstructor) {
  Tensor t(Shape({4}), 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.at(i), 2.5f);
}

TEST(TensorTest, TwoDimensionalAccessorsMatchRowMajorLayout) {
  Tensor t(Shape({2, 3}));
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.at(1 * 3 + 2), 7.0f);
  t.at(0, 1) = 3.0f;
  EXPECT_EQ(t.data()[1], 3.0f);
}

TEST(TensorTest, CopyIsDeep) {
  Tensor a(Shape({3}), 1.0f);
  Tensor b = a;
  b.at(0) = 9.0f;
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t(Shape({2, 6}));
  for (int64_t i = 0; i < 12; ++i) t.at(i) = static_cast<float>(i);
  t.Reshape(Shape({3, 4}));
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  for (int64_t i = 0; i < 12; ++i) EXPECT_EQ(t.at(i), static_cast<float>(i));
}

TEST(TensorTest, ResizeKeepsStorageWithinCapacity) {
  Tensor t;
  t.Resize({4, 8});
  EXPECT_EQ(t.shape(), Shape({4, 8}));
  EXPECT_EQ(t.size(), 32);
  const float* storage = t.data();
  t.Resize({2, 3});  // shrink: same storage
  EXPECT_EQ(t.shape(), Shape({2, 3}));
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.data(), storage);
  t.Resize({8, 4});  // grow back within capacity: still the same storage
  EXPECT_EQ(t.shape(), Shape({8, 4}));
  EXPECT_EQ(t.data(), storage);
}

TEST(TensorTest, Norms) {
  Tensor t(Shape({2}));
  t.at(0) = 3.0f;
  t.at(1) = -4.0f;
  EXPECT_DOUBLE_EQ(t.SumSquares(), 25.0);
  EXPECT_DOUBLE_EQ(t.L2Norm(), 5.0);
  EXPECT_DOUBLE_EQ(t.AbsMax(), 4.0);
}

TEST(TensorTest, FillGaussianStatistics) {
  Rng rng(3);
  Tensor t(Shape({100000}));
  t.FillGaussian(&rng, 2.0f);
  double sum = 0.0, sum_sq = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) {
    sum += t.at(i);
    sum_sq += static_cast<double>(t.at(i)) * t.at(i);
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.05);
  EXPECT_NEAR(sum_sq / t.size(), 4.0, 0.1);
}

TEST(TensorTest, FillUniformRange) {
  Rng rng(4);
  Tensor t(Shape({10000}));
  t.FillUniform(&rng, 0.5f);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t.at(i), -0.5f);
    EXPECT_LE(t.at(i), 0.5f);
  }
}

TEST(TensorTest, DebugStringTruncates) {
  Tensor t(Shape({100}));
  const std::string s = t.DebugString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("[100]"), std::string::npos);
}

}  // namespace
}  // namespace lpsgd
