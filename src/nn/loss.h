// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_NN_LOSS_H_
#define LPSGD_NN_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace lpsgd {

// Result of evaluating softmax cross-entropy over a batch.
struct LossResult {
  double loss_sum = 0.0;   // summed (not averaged) over the batch
  int64_t correct = 0;     // top-1 correct predictions
  Tensor logits_grad;      // d(mean loss)/d(logits), shape of logits
};

// Computes softmax cross-entropy loss, top-1 accuracy counts, and the
// gradient of the *mean* loss w.r.t. the logits ({batch, classes}).
LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int>& labels);

// Evaluation-only variant (no gradient allocation). Tracks both top-1 and
// top-5 correctness (the paper reports top-5 for ImageNet-scale tasks).
struct EvalResult {
  double loss_sum = 0.0;
  int64_t correct = 0;
  int64_t correct_top5 = 0;

  void Add(const EvalResult& other) {
    loss_sum += other.loss_sum;
    correct += other.correct;
    correct_top5 += other.correct_top5;
  }
};
// Adds EvaluateSoftmaxCrossEntropyRow over the rows in order.
EvalResult EvaluateSoftmaxCrossEntropy(const Tensor& logits,
                                       const std::vector<int>& labels);

// Row `r` alone: its loss, and 0 or 1 in `correct` and `correct_top5`.
// `probs` is SoftmaxRows(logits), or at least its row `r`. Each row's
// result depends on that row only, so rows may be evaluated on any
// thread; adding them in row order reproduces the batch sum bit for bit.
EvalResult EvaluateSoftmaxCrossEntropyRow(const Tensor& logits,
                                          const Tensor& probs, int64_t r,
                                          int label);

// True when `label` is among the `k` largest logits of row `r`.
bool LabelInTopK(const Tensor& logits, int64_t r, int label, int k);

}  // namespace lpsgd

#endif  // LPSGD_NN_LOSS_H_
