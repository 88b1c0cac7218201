// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_TENSOR_TENSOR_H_
#define LPSGD_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "base/rng.h"
#include "tensor/shape.h"

namespace lpsgd {

// Dense fp32 tensor with row-major storage. This is the single numeric
// container used by the NN substrate and the gradient codecs. Copyable
// (copies are deep) and movable.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  const Shape& shape() const { return shape_; }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  int64_t rows() const { return shape_.rows(); }
  int64_t cols() const { return shape_.cols(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(int64_t i) { return data_[static_cast<size_t>(i)]; }
  float at(int64_t i) const { return data_[static_cast<size_t>(i)]; }

  // 2-D accessors through the CNTK matrix view (row-major storage:
  // element (r, c) is data()[r * cols() + c]).
  float& at(int64_t r, int64_t c) { return data_[r * cols() + c]; }
  float at(int64_t r, int64_t c) const { return data_[r * cols() + c]; }

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  // Fills with N(0, stddev^2) samples.
  void FillGaussian(Rng* rng, float stddev);

  // Fills with U(-limit, limit) samples.
  void FillUniform(Rng* rng, float limit);

  // Reinterprets the buffer with a new shape of identical element count.
  void Reshape(Shape shape);

  // Gives the tensor the shape `dims`, keeping the capacity of its storage
  // and of its dims: it allocates only when either must grow. Element
  // values are unspecified afterwards. For scratch reused across calls.
  void Resize(std::initializer_list<int64_t> dims);

  // Sum of squares and norms over all elements.
  double SumSquares() const;
  double L2Norm() const;
  double AbsMax() const;

  std::string DebugString(int64_t max_elements = 16) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace lpsgd

#endif  // LPSGD_TENSOR_TENSOR_H_
