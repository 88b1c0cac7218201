// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_OPTIMIZER_H_
#define LPSGD_NN_OPTIMIZER_H_

#include <utility>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor.h"

namespace lpsgd {

// SGD with classical momentum, the optimizer used throughout the paper
// (Section 4.4: default momentum 0.9). Velocity state is keyed by parameter
// position, so the same optimizer instance must always be stepped with the
// same parameter list.
class SgdMomentumOptimizer {
 public:
  SgdMomentumOptimizer(float learning_rate, float momentum);

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }

  // Applies one update x -= lr * v, with v = momentum * v + grad. `grads[i]`
  // must already hold the (globally averaged) gradient for `params[i]`.
  void Step(const std::vector<ParamRef>& params);

  // Momentum-state access for recovery snapshots and checkpoints
  // (SyncTrainer's rollback-and-retry and durable saves): velocity() reads
  // the per-parameter buffers in place, set_velocity replaces them. An
  // empty vector resets to the lazily-sized initial state.
  const std::vector<Tensor>& velocity() const { return velocity_; }
  void set_velocity(std::vector<Tensor> velocity) {
    velocity_ = std::move(velocity);
  }

 private:
  float learning_rate_;
  float momentum_;
  std::vector<Tensor> velocity_;  // lazily sized on first Step
};

}  // namespace lpsgd

#endif  // LPSGD_NN_OPTIMIZER_H_
