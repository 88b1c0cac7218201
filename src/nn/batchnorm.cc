// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/batchnorm.h"

#include <cmath>

#include "base/logging.h"

namespace lpsgd {
namespace {

// Iterates a {batch, C} or {batch, C, H, W} tensor channel-wise: calls
// fn(channel, flat_index) for every element.
template <typename Fn>
void ForEachChannelElement(const Shape& shape, Fn&& fn) {
  const int64_t batch = shape.dim(0);
  const int64_t channels = shape.dim(1);
  const int64_t plane =
      shape.ndim() == 4 ? shape.dim(2) * shape.dim(3) : 1;
  int64_t idx = 0;
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t p = 0; p < plane; ++p, ++idx) {
        fn(c, idx);
      }
    }
  }
}

}  // namespace

BatchNormLayer::BatchNormLayer(std::string name, int channels, float momentum,
                               float epsilon)
    : name_(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Shape({channels}), 1.0f),
      gamma_grad_(Shape({channels})),
      beta_(Shape({channels})),
      beta_grad_(Shape({channels})),
      running_mean_(Shape({channels})),
      running_var_(Shape({channels}), 1.0f) {
  CHECK_GT(channels, 0);
}

Tensor BatchNormLayer::Forward(const Tensor& input, bool training) {
  CHECK(input.shape().ndim() == 2 || input.shape().ndim() == 4) << name_;
  CHECK_EQ(input.shape().dim(1), channels_) << name_;
  const Shape& shape = input.shape();
  const int64_t per_channel = input.size() / channels_;

  std::vector<double> mean(static_cast<size_t>(channels_), 0.0);
  std::vector<double> var(static_cast<size_t>(channels_), 0.0);

  if (training) {
    const float* in = input.data();
    ForEachChannelElement(shape, [&](int64_t c, int64_t idx) {
      mean[static_cast<size_t>(c)] += in[idx];
    });
    for (auto& m : mean) m /= static_cast<double>(per_channel);
    ForEachChannelElement(shape, [&](int64_t c, int64_t idx) {
      const double d = in[idx] - mean[static_cast<size_t>(c)];
      var[static_cast<size_t>(c)] += d * d;
    });
    for (auto& v : var) v /= static_cast<double>(per_channel);
    for (int c = 0; c < channels_; ++c) {
      running_mean_.at(c) = momentum_ * running_mean_.at(c) +
                            (1.0f - momentum_) *
                                static_cast<float>(mean[static_cast<size_t>(c)]);
      running_var_.at(c) = momentum_ * running_var_.at(c) +
                           (1.0f - momentum_) *
                               static_cast<float>(var[static_cast<size_t>(c)]);
    }
  } else {
    for (int c = 0; c < channels_; ++c) {
      mean[static_cast<size_t>(c)] = running_mean_.at(c);
      var[static_cast<size_t>(c)] = running_var_.at(c);
    }
  }

  std::vector<float> inv_std(static_cast<size_t>(channels_));
  for (int c = 0; c < channels_; ++c) {
    inv_std[static_cast<size_t>(c)] = static_cast<float>(
        1.0 / std::sqrt(var[static_cast<size_t>(c)] + epsilon_));
  }

  // Only a training pass keeps the normalized input for Backward.
  Tensor output(shape);
  Tensor normalized = training ? Tensor(shape) : Tensor();
  const float* in = input.data();
  float* out = output.data();
  float* norm = training ? normalized.data() : nullptr;
  ForEachChannelElement(shape, [&](int64_t c, int64_t idx) {
    const size_t ci = static_cast<size_t>(c);
    const float n = (in[idx] - static_cast<float>(mean[ci])) * inv_std[ci];
    if (norm != nullptr) norm[idx] = n;
    out[idx] = gamma_.at(c) * n + beta_.at(c);
  });

  if (training) {
    cached_normalized_ = std::move(normalized);
    cached_inv_std_ = std::move(inv_std);
    cached_input_shape_ = shape;
  }
  return output;
}

Tensor BatchNormLayer::Backward(const Tensor& output_grad) {
  CHECK(output_grad.shape() == cached_input_shape_) << name_;
  const Shape& shape = cached_input_shape_;
  const int64_t per_channel = output_grad.size() / channels_;

  // Standard batch-norm backward:
  //   dx = gamma * inv_std / m * (m * dy - sum(dy) - x_hat * sum(dy * x_hat))
  std::vector<double> sum_dy(static_cast<size_t>(channels_), 0.0);
  std::vector<double> sum_dy_xhat(static_cast<size_t>(channels_), 0.0);
  const float* dy = output_grad.data();
  const float* xhat = cached_normalized_.data();
  ForEachChannelElement(shape, [&](int64_t c, int64_t idx) {
    const size_t ci = static_cast<size_t>(c);
    sum_dy[ci] += dy[idx];
    sum_dy_xhat[ci] += static_cast<double>(dy[idx]) * xhat[idx];
  });

  for (int c = 0; c < channels_; ++c) {
    const size_t ci = static_cast<size_t>(c);
    beta_grad_.at(c) += static_cast<float>(sum_dy[ci]);
    gamma_grad_.at(c) += static_cast<float>(sum_dy_xhat[ci]);
  }

  Tensor input_grad(shape);
  float* dx = input_grad.data();
  const double inv_m = 1.0 / static_cast<double>(per_channel);
  ForEachChannelElement(shape, [&](int64_t c, int64_t idx) {
    const size_t ci = static_cast<size_t>(c);
    const double term = static_cast<double>(dy[idx]) -
                        sum_dy[ci] * inv_m -
                        static_cast<double>(xhat[idx]) * sum_dy_xhat[ci] *
                            inv_m;
    dx[idx] = static_cast<float>(gamma_.at(c) * cached_inv_std_[ci] * term);
  });
  return input_grad;
}

void BatchNormLayer::CollectParams(std::vector<ParamRef>* params) {
  params->push_back(ParamRef{name_ + "/gamma", &gamma_, &gamma_grad_,
                             Shape({channels_}), ParamKind::kOther});
  params->push_back(ParamRef{name_ + "/beta", &beta_, &beta_grad_,
                             Shape({channels_}), ParamKind::kOther});
}

}  // namespace lpsgd
