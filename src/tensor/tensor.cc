// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "base/strings.h"

namespace lpsgd {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shape_.element_count()), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shape_.element_count()), fill) {}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::FillGaussian(Rng* rng, float stddev) {
  for (float& x : data_) {
    x = static_cast<float>(rng->NextGaussian()) * stddev;
  }
}

void Tensor::FillUniform(Rng* rng, float limit) {
  for (float& x : data_) {
    x = (2.0f * rng->NextFloat() - 1.0f) * limit;
  }
}

void Tensor::Reshape(Shape shape) {
  CHECK_EQ(shape.element_count(), shape_.element_count())
      << "Reshape " << shape_.ToString() << " -> " << shape.ToString();
  shape_ = std::move(shape);
}

void Tensor::Resize(std::initializer_list<int64_t> dims) {
  for (int64_t d : dims) CHECK_GE(d, 0);
  shape_.dims_.assign(dims);  // reuses the dims' capacity
  data_.resize(static_cast<size_t>(shape_.element_count()));
}

double Tensor::SumSquares() const {
  double sum = 0.0;
  for (float x : data_) sum += static_cast<double>(x) * x;
  return sum;
}

double Tensor::L2Norm() const { return std::sqrt(SumSquares()); }

double Tensor::AbsMax() const {
  double max_abs = 0.0;
  for (float x : data_) max_abs = std::max(max_abs, std::abs(double{x}));
  return max_abs;
}

std::string Tensor::DebugString(int64_t max_elements) const {
  std::string out = StrCat("Tensor", shape_.ToString(), " {");
  const int64_t n = std::min<int64_t>(size(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += FormatDouble(data_[static_cast<size_t>(i)], 4);
  }
  if (n < size()) out += ", ...";
  out += "}";
  return out;
}

}  // namespace lpsgd
