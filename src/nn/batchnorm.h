// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_BATCHNORM_H_
#define LPSGD_NN_BATCHNORM_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace lpsgd {

// Batch normalization over the channel dimension. Accepts {batch, C, H, W}
// (per-channel statistics over batch*H*W) or {batch, C} (per-feature
// statistics over the batch). A training Forward updates the running
// statistics that an eval Forward normalizes with; an eval Forward only
// reads them.
class BatchNormLayer : public Layer {
 public:
  BatchNormLayer(std::string name, int channels, float momentum = 0.9f,
                 float epsilon = 1e-5f);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  void CollectParams(std::vector<ParamRef>* params) override;
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

 private:
  std::string name_;
  int channels_;
  float momentum_;
  float epsilon_;
  Tensor gamma_;       // {C}
  Tensor gamma_grad_;  // {C}
  Tensor beta_;        // {C}
  Tensor beta_grad_;   // {C}
  Tensor running_mean_;
  Tensor running_var_;

  // Backward-pass caches from the last training Forward.
  Tensor cached_normalized_;
  std::vector<float> cached_inv_std_;
  Shape cached_input_shape_;
};

}  // namespace lpsgd

#endif  // LPSGD_NN_BATCHNORM_H_
