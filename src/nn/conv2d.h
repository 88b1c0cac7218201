// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_CONV2D_H_
#define LPSGD_NN_CONV2D_H_

#include <atomic>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/layer.h"

namespace lpsgd {

// 2-D convolution over {batch, channels, height, width} inputs. Square
// kernels, uniform stride/padding. A training Forward or a Backward is one
// im2col over the batch and one Gemm per product, with every sample's
// output positions side by side; an eval Forward does the same a few
// samples at a time. Each output and gradient element sees the same float
// operations, in the same order, as a loop of per-sample Gemms gives it.
class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(std::string name, int in_channels, int out_channels,
              int kernel_size, int stride, int padding, Rng* rng);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  void CollectParams(std::vector<ParamRef>* params) override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  // Runs im2col + Gemm for samples [first, first + count) of `input`,
  // with their patches in `patches` ({count * plane, K}), and writes their
  // outputs plus bias into `output`.
  void ForwardSamples(const Tensor& input, int64_t first, int64_t count,
                      Tensor* patches, Tensor* output) const;

  std::string name_;
  int in_channels_;
  int out_channels_;
  int kernel_size_;
  int stride_;
  int padding_;
  Tensor weight_;       // {out_c, in_c * k * k}
  Tensor weight_grad_;  // same shape
  Tensor bias_;         // {out_c}
  Tensor bias_grad_;    // {out_c}
  // Input shape and im2col patches ({batch * plane, K}, sample-major) of
  // the last training Forward, which Backward needs. An eval Forward keeps
  // no patches and clears `has_patches_`; concurrent eval passes all store
  // false, hence relaxed atomic.
  Shape cached_input_shape_;
  Tensor patches_;
  std::atomic<bool> has_patches_{false};
};

}  // namespace lpsgd

#endif  // LPSGD_NN_CONV2D_H_
