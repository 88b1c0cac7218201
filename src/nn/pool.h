// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_POOL_H_
#define LPSGD_NN_POOL_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace lpsgd {

// Max pooling over {batch, channels, height, width} inputs with square
// windows. A training Forward remembers argmax positions for the backward
// pass.
class MaxPool2dLayer : public Layer {
 public:
  MaxPool2dLayer(std::string name, int window, int stride);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  std::string name_;
  int window_;
  int stride_;
  Shape cached_input_shape_;
  // Flat input index of the maximum for each output element.
  std::vector<int64_t> argmax_;
};

// Global average pooling: {batch, C, H, W} -> {batch, C}.
class GlobalAvgPoolLayer : public Layer {
 public:
  explicit GlobalAvgPoolLayer(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  std::string name_;
  Shape cached_input_shape_;
};

// Reshapes {batch, ...} to {batch, product-of-rest}.
class FlattenLayer : public Layer {
 public:
  explicit FlattenLayer(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  std::string name_;
  Shape cached_input_shape_;
};

}  // namespace lpsgd

#endif  // LPSGD_NN_POOL_H_
