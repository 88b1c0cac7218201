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
// kernels, uniform stride/padding. The forward product and the weight
// gradient are one Gemm each over the whole batch, with every sample's
// output positions side by side. Their im2col patches matrix is never
// stored: Gemm's B panels are packed straight from the zero-padded input
// images (an implicit im2col). The input gradient is one Gemm and one col2im per
// sample. Each output and gradient element sees the same float
// operations, in the same order, as a loop of per-sample Gemms over
// explicit patches gives it.
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
  // The input of the last training Forward with its zero padding,
  // {batch, in_c, H + 2 * padding, W + 2 * padding}: Forward packs from it
  // and Backward packs the weight gradient's patches from it again. A
  // training Forward sets `has_cached_input_` and an eval Forward, which
  // pads into per-thread scratch instead, clears it, so Backward runs only
  // right after a training Forward. Concurrent eval passes all store
  // false, hence relaxed atomic.
  Tensor cached_input_;
  std::atomic<bool> has_cached_input_{false};
};

}  // namespace lpsgd

#endif  // LPSGD_NN_CONV2D_H_
