// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_DROPOUT_H_
#define LPSGD_NN_DROPOUT_H_

#include <atomic>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace lpsgd {

// Inverted dropout: during training each activation is zeroed with
// probability `rate` and survivors are scaled by 1/(1-rate); evaluation is
// the identity. Masks come from a counter-based stream keyed by an
// internal call counter, so replicas created from the same seed draw
// identical masks — a requirement for lockstep data-parallel training
// (every rank must drop the same units for its shard).
class DropoutLayer : public Layer {
 public:
  DropoutLayer(std::string name, float rate, uint64_t seed);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  Shape OutputShape(const Shape& input_shape) const override {
    return input_shape;
  }

 private:
  std::string name_;
  float rate_;
  uint64_t seed_;
  uint64_t forward_calls_ = 0;
  std::vector<bool> mask_;  // true = kept
  // Whether the last Forward was a training one. Concurrent eval passes
  // all store false, hence relaxed atomic; nothing else is ordered by it.
  std::atomic<bool> last_was_training_{false};
};

}  // namespace lpsgd

#endif  // LPSGD_NN_DROPOUT_H_
