// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/dropout.h"

#include "base/logging.h"
#include "base/rng.h"

namespace lpsgd {

DropoutLayer::DropoutLayer(std::string name, float rate, uint64_t seed)
    : name_(std::move(name)), rate_(rate), seed_(seed) {
  CHECK_GE(rate, 0.0f);
  CHECK_LT(rate, 1.0f);
}

Tensor DropoutLayer::Forward(const Tensor& input, bool training) {
  last_was_training_.store(training, std::memory_order_relaxed);
  if (!training || rate_ == 0.0f) {
    return input;
  }
  const CounterRng stream(seed_, forward_calls_++);
  const float keep_scale = 1.0f / (1.0f - rate_);
  Tensor output = input;
  mask_.assign(static_cast<size_t>(input.size()), true);
  float* data = output.data();
  for (int64_t i = 0; i < output.size(); ++i) {
    if (stream.UniformAt(static_cast<uint64_t>(i)) < rate_) {
      data[i] = 0.0f;
      mask_[static_cast<size_t>(i)] = false;
    } else {
      data[i] *= keep_scale;
    }
  }
  return output;
}

Tensor DropoutLayer::Backward(const Tensor& output_grad) {
  if (!last_was_training_.load(std::memory_order_relaxed) ||
      rate_ == 0.0f) {
    return output_grad;
  }
  CHECK_EQ(static_cast<size_t>(output_grad.size()), mask_.size()) << name_;
  Tensor input_grad = output_grad;
  const float keep_scale = 1.0f / (1.0f - rate_);
  float* grad = input_grad.data();
  for (int64_t i = 0; i < input_grad.size(); ++i) {
    grad[i] = mask_[static_cast<size_t>(i)] ? grad[i] * keep_scale : 0.0f;
  }
  return input_grad;
}

}  // namespace lpsgd
