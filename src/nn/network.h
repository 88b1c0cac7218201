// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_NETWORK_H_
#define LPSGD_NN_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace lpsgd {

// A sequential stack of layers ending in classification logits. Owns its
// layers. One Network instance is one model replica (e.g. one simulated
// GPU's copy).
class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  // Appends a layer; returns *this for chaining.
  Network& Add(std::unique_ptr<Layer> layer);

  // Runs all layers; input leading dimension is the batch.
  Tensor Forward(const Tensor& input, bool training);

  // Runs all layers backward from the loss gradient w.r.t. the logits,
  // accumulating parameter gradients.
  void Backward(const Tensor& logits_grad);

  // References to every trainable parameter, in layer order. The pointers
  // stay valid for the lifetime of the network (layers are never removed).
  std::vector<ParamRef> Params();

  // Zeroes all parameter gradients.
  void ZeroGrads();

  // Total number of trainable scalars.
  int64_t ParameterCount();

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_[static_cast<size_t>(i)]; }

  // Copies all parameter values from `other` (architectures must match;
  // used to give every data-parallel replica identical initial weights).
  void CopyParamsFrom(Network& other);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

// A residual block: output = inner(x) + shortcut(x), where shortcut is
// identity when shapes match or an optional projection sub-network.
// Usable as a single Layer inside a Network (this is how the scaled-down
// ResNet models are assembled).
class ResidualBlock : public Layer {
 public:
  // `inner` must preserve the batch dimension. `projection` may be null
  // (identity shortcut); when given, it must map the input shape to the
  // inner output shape.
  ResidualBlock(std::string name, std::vector<std::unique_ptr<Layer>> inner,
                std::vector<std::unique_ptr<Layer>> projection = {});

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  void CollectParams(std::vector<ParamRef>* params) override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> inner_;
  std::vector<std::unique_ptr<Layer>> projection_;
};

}  // namespace lpsgd

#endif  // LPSGD_NN_NETWORK_H_
