// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_LAYER_H_
#define LPSGD_NN_LAYER_H_

#include <string>
#include <vector>

#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace lpsgd {

// Role of a parameter tensor; the quantization policy treats convolutional
// and fully-connected matrices differently (Section 5.1, "Impact of Layer
// Types") and may bypass small tensors such as biases.
enum class ParamKind {
  kFullyConnected,
  kConvolutional,
  kBias,
  kOther,
};

// A view into one trainable parameter matrix of a network.
//
// `quant_shape` is the CNTK tensor shape of the parameter as seen by the
// quantizer: its first dimension is the "row" count and the remaining
// dimensions flatten onto columns (Section 3.2.1). For convolution kernels
// CNTK's first dimension is the (tiny) kernel width, which is what makes
// the stock per-column 1bitSGD pathological on convolutional networks; we
// reproduce that layout faithfully.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  Shape quant_shape;
  ParamKind kind = ParamKind::kOther;
};

// One differentiable network module. Layers cache whatever they need from
// a training Forward to run Backward; a layer instance therefore belongs
// to exactly one replica and one in-flight training batch at a time.
//
// Eval passes are different: an eval-mode Forward writes no state that
// another eval pass reads. It caches nothing for Backward and keeps its
// scratch per thread, so several threads may run eval Forwards on the
// same layer at once, e.g. on disjoint row slices of one batch, while no
// training pass runs. Each output row depends only on its own input row,
// so a slice's output is bit-identical to the same rows of one eval
// Forward over the whole batch.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  // Computes the layer output for `input` (leading dimension = batch).
  // `training` toggles train-time behaviour (e.g. batch-norm statistics).
  // With `training` false the call is an eval pass (see the class
  // comment): it leaves the caches of the last training Forward for
  // Backward, except that a layer whose Backward cannot pair with an
  // earlier training Forward across an eval pass (Conv2d, Dropout) only
  // clears a flag.
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  // Given the loss gradient w.r.t. the layer output, accumulates parameter
  // gradients (+=) and returns the loss gradient w.r.t. the layer input.
  // Must be called exactly once per Forward.
  virtual Tensor Backward(const Tensor& output_grad) = 0;

  // Appends references to this layer's parameters. Default: none.
  virtual void CollectParams(std::vector<ParamRef>* params) {
    (void)params;
  }

  // Output shape for a given input shape (both without batch dimension).
  virtual Shape OutputShape(const Shape& input_shape) const = 0;
};

}  // namespace lpsgd

#endif  // LPSGD_NN_LAYER_H_
