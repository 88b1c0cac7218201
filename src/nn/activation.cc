// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/activation.h"

#include "base/logging.h"
#include "base/simd/elementwise.h"

namespace lpsgd {

ActivationLayer::ActivationLayer(std::string name, ActivationKind kind)
    : name_(std::move(name)), kind_(kind) {}

Tensor ActivationLayer::Forward(const Tensor& input, bool training) {
  Tensor output = input;
  float* data = output.data();
  switch (kind_) {
    case ActivationKind::kRelu:
      // A select, not a branch: it vectorizes, and NaN and -0 pass
      // through unchanged.
      for (int64_t i = 0; i < output.size(); ++i) {
        data[i] = data[i] < 0.0f ? 0.0f : data[i];
      }
      break;
    case ActivationKind::kTanh:
      ActiveElementwiseKernels().tanh_f32(data, data, output.size());
      break;
    case ActivationKind::kSigmoid:
      ActiveElementwiseKernels().sigmoid_f32(data, data, output.size());
      break;
  }
  // Reuses the cache's storage once it is sized.
  if (training) cached_output_ = output;
  return output;
}

Tensor ActivationLayer::Backward(const Tensor& output_grad) {
  CHECK_EQ(output_grad.size(), cached_output_.size());
  Tensor input_grad = output_grad;
  float* grad = input_grad.data();
  const float* out = cached_output_.data();
  switch (kind_) {
    case ActivationKind::kRelu:
      for (int64_t i = 0; i < input_grad.size(); ++i) {
        grad[i] = out[i] <= 0.0f ? 0.0f : grad[i];
      }
      break;
    case ActivationKind::kTanh:
      for (int64_t i = 0; i < input_grad.size(); ++i) {
        grad[i] *= 1.0f - out[i] * out[i];
      }
      break;
    case ActivationKind::kSigmoid:
      for (int64_t i = 0; i < input_grad.size(); ++i) {
        grad[i] *= out[i] * (1.0f - out[i]);
      }
      break;
  }
  return input_grad;
}

}  // namespace lpsgd
