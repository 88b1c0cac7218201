// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/pool.h"

#include <limits>

#include "base/logging.h"
#include "tensor/ops.h"

namespace lpsgd {

MaxPool2dLayer::MaxPool2dLayer(std::string name, int window, int stride)
    : name_(std::move(name)), window_(window), stride_(stride) {
  CHECK_GT(window, 0);
  CHECK_GT(stride, 0);
}

Tensor MaxPool2dLayer::Forward(const Tensor& input, bool training) {
  CHECK_EQ(input.shape().ndim(), 4) << name_;
  const int64_t batch = input.shape().dim(0);
  const int64_t channels = input.shape().dim(1);
  const int height = static_cast<int>(input.shape().dim(2));
  const int width = static_cast<int>(input.shape().dim(3));
  const int out_h = ConvOutputSize(height, window_, stride_, /*padding=*/0);
  const int out_w = ConvOutputSize(width, window_, stride_, /*padding=*/0);
  CHECK_GT(out_h, 0) << name_;
  CHECK_GT(out_w, 0) << name_;

  Tensor output(Shape({batch, channels, out_h, out_w}));
  // Only a training pass records where each maximum came from.
  int64_t* argmax = nullptr;
  if (training) {
    cached_input_shape_ = input.shape();
    argmax_.assign(static_cast<size_t>(output.size()), 0);
    argmax = argmax_.data();
  }

  const float* in = input.data();
  float* out = output.data();
  int64_t out_idx = 0;
  for (int64_t bc = 0; bc < batch * channels; ++bc) {
    const float* plane = in + bc * height * width;
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox, ++out_idx) {
        float best = -std::numeric_limits<float>::infinity();
        int64_t best_idx = 0;
        for (int ky = 0; ky < window_; ++ky) {
          const int iy = oy * stride_ + ky;
          if (iy >= height) break;
          for (int kx = 0; kx < window_; ++kx) {
            const int ix = ox * stride_ + kx;
            if (ix >= width) break;
            const int64_t idx = int64_t{iy} * width + ix;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = bc * height * width + idx;
            }
          }
        }
        out[out_idx] = best;
        if (argmax != nullptr) argmax[out_idx] = best_idx;
      }
    }
  }
  return output;
}

Tensor MaxPool2dLayer::Backward(const Tensor& output_grad) {
  CHECK_EQ(static_cast<size_t>(output_grad.size()), argmax_.size()) << name_;
  Tensor input_grad(cached_input_shape_);
  float* in_grad = input_grad.data();
  const float* out_grad = output_grad.data();
  for (int64_t i = 0; i < output_grad.size(); ++i) {
    in_grad[argmax_[static_cast<size_t>(i)]] += out_grad[i];
  }
  return input_grad;
}

Shape MaxPool2dLayer::OutputShape(const Shape& input_shape) const {
  CHECK_EQ(input_shape.ndim(), 3);
  const int out_h = ConvOutputSize(static_cast<int>(input_shape.dim(1)),
                                   window_, stride_, 0);
  const int out_w = ConvOutputSize(static_cast<int>(input_shape.dim(2)),
                                   window_, stride_, 0);
  return Shape({input_shape.dim(0), out_h, out_w});
}

Tensor GlobalAvgPoolLayer::Forward(const Tensor& input, bool training) {
  CHECK_EQ(input.shape().ndim(), 4) << name_;
  if (training) cached_input_shape_ = input.shape();
  const int64_t batch = input.shape().dim(0);
  const int64_t channels = input.shape().dim(1);
  const int64_t plane = input.shape().dim(2) * input.shape().dim(3);
  Tensor output(Shape({batch, channels}));
  const float* in = input.data();
  float* out = output.data();
  const float inv = 1.0f / static_cast<float>(plane);
  for (int64_t bc = 0; bc < batch * channels; ++bc) {
    float sum = 0.0f;
    for (int64_t p = 0; p < plane; ++p) sum += in[bc * plane + p];
    out[bc] = sum * inv;
  }
  return output;
}

Tensor GlobalAvgPoolLayer::Backward(const Tensor& output_grad) {
  const int64_t plane =
      cached_input_shape_.dim(2) * cached_input_shape_.dim(3);
  Tensor input_grad(cached_input_shape_);
  const float inv = 1.0f / static_cast<float>(plane);
  const float* out_grad = output_grad.data();
  float* in_grad = input_grad.data();
  for (int64_t bc = 0; bc < output_grad.size(); ++bc) {
    const float g = out_grad[bc] * inv;
    for (int64_t p = 0; p < plane; ++p) in_grad[bc * plane + p] = g;
  }
  return input_grad;
}

Shape GlobalAvgPoolLayer::OutputShape(const Shape& input_shape) const {
  CHECK_EQ(input_shape.ndim(), 3);
  return Shape({input_shape.dim(0)});
}

Tensor FlattenLayer::Forward(const Tensor& input, bool training) {
  if (training) cached_input_shape_ = input.shape();
  Tensor output = input;
  output.Reshape(Shape({input.shape().dim(0), input.size() /
                                                  input.shape().dim(0)}));
  return output;
}

Tensor FlattenLayer::Backward(const Tensor& output_grad) {
  Tensor input_grad = output_grad;
  input_grad.Reshape(cached_input_shape_);
  return input_grad;
}

Shape FlattenLayer::OutputShape(const Shape& input_shape) const {
  return Shape({input_shape.element_count()});
}

}  // namespace lpsgd
