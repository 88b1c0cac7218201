// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_TENSOR_SHAPE_H_
#define LPSGD_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace lpsgd {

// Dense tensor shape. Follows CNTK's convention for quantization purposes:
// the first dimension is the "row" dimension and all remaining dimensions
// are flattened onto "columns" (Section 3.2.1 of the paper).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(std::vector<int64_t> dims);

  int ndim() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const;
  const std::vector<int64_t>& dims() const { return dims_; }

  // Total number of elements; 1 for a scalar (rank-0) shape.
  int64_t element_count() const;

  // CNTK matrix view: first dimension.
  int64_t rows() const { return ndim() == 0 ? 1 : dim(0); }
  // CNTK matrix view: product of remaining dimensions.
  int64_t cols() const;

  // "[2 x 3 x 4]".
  std::string ToString() const;

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.dims_ == b.dims_;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  friend class Tensor;  // Resize assigns dims_ in place, without allocating
  std::vector<int64_t> dims_;
};

}  // namespace lpsgd

#endif  // LPSGD_TENSOR_SHAPE_H_
