// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_LSTM_H_
#define LPSGD_NN_LSTM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/layer.h"

namespace lpsgd {

// Single-layer LSTM over {batch, time, input_dim} sequences. With
// `return_sequences` false (default) it emits the final hidden state
// {batch, hidden_dim}; with true it emits every step's hidden state
// {batch, time, hidden_dim}, which is what stacked LSTMs consume (the
// paper's AN4 network has three LSTM components). Gate layout in the
// packed weight matrices is [input, forget, cell, output].
//
// Only the recurrence runs per timestep: the h · Whᵀ Gemm and the
// nonlinearity in Forward, the gate gradients and dh = dgates · Wh in
// Backward. Everything else is one Gemm over all time·batch rows: x · Wxᵀ
// before the loop, dWx, dWh and dx after it. For that, Forward keeps its
// per-step values in layer-owned stacks that hold step t in rows
// [(T-1-t)·B, +B): descending t, the order Backward visits the steps in,
// so the batched weight gradients accumulate their terms in the order the
// per-step Gemms did (DESIGN.md, "LSTM"). Backward overwrites each step's
// gates with its gate gradients, so it consumes the caches: exactly one
// Backward per Forward, as `Layer` requires, and a CHECK enforces it.
// In steady-state training the layer allocates only the tensors it
// returns. An eval Forward runs the same code on per-thread stacks and
// leaves the layer's own stacks to Backward.
class LstmLayer : public Layer {
 public:
  LstmLayer(std::string name, int input_dim, int hidden_dim, Rng* rng,
            bool return_sequences = false);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& output_grad) override;
  void CollectParams(std::vector<ParamRef>* params) override;
  Shape OutputShape(const Shape& input_shape) const override;

 private:
  std::string name_;
  int input_dim_;
  int hidden_dim_;
  bool return_sequences_;
  Tensor wx_;       // {4h, input_dim}
  Tensor wx_grad_;
  Tensor wh_;       // {4h, hidden_dim}
  Tensor wh_grad_;
  Tensor bias_;     // {4h}
  Tensor bias_grad_;

  // What a Forward computes, step t in rows [(T-1-t)·B, +B) of each
  // stack, and the per-step operands of the recurrent Gemm.
  struct Stacks {
    Tensor x;       // {T·B, input_dim}; Backward reuses it for dx
    Tensor h_prev;  // {T·B, h}: h_{t-1}; training only
    Tensor c;       // {(T+1)·B, h}: c_t, then c_{-1} = 0 in the last B rows
    Tensor tanh_c;  // {T·B, h}
    Tensor gates;   // {T·B, 4h}: post-nonlinearity i, f, g, o; then dgates
    Tensor h;           // {B, h}
    Tensor step_gates;  // {B, 4h}; Backward's per-step dgates
  };

  // The last training Forward's stacks, for Backward.
  Stacks stacks_;
  int64_t cached_batch_ = 0;
  int64_t cached_time_ = 0;  // 0 once Backward has consumed the stacks
  // An eval Forward's stacks: one set per thread, shared by every layer.
  static thread_local Stacks eval_stacks_;

  // Backward's {B, h} recurrent gradients and per-step bias-gradient sum.
  Tensor dh_;
  Tensor dc_;
  Tensor step_bias_grad_;
};

}  // namespace lpsgd

#endif  // LPSGD_NN_LSTM_H_
