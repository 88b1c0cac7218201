// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/loss.h"

#include <cmath>

#include "base/logging.h"
#include "tensor/ops.h"

namespace lpsgd {
namespace {

constexpr double kProbFloor = 1e-12;

}  // namespace

LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int>& labels) {
  const int64_t batch = logits.rows();
  const int64_t classes = logits.cols();
  CHECK_EQ(static_cast<size_t>(batch), labels.size());

  LossResult result;
  Tensor probs(logits.shape());
  SoftmaxRows(logits, &probs);

  result.logits_grad = probs;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (int64_t r = 0; r < batch; ++r) {
    const int label = labels[static_cast<size_t>(r)];
    CHECK_GE(label, 0);
    CHECK_LT(label, classes);
    const double p =
        std::max(static_cast<double>(probs.at(r, label)), kProbFloor);
    result.loss_sum += -std::log(p);
    if (ArgMaxRow(probs, r) == label) ++result.correct;
    result.logits_grad.at(r, label) -= 1.0f;
  }
  Scale(inv_batch, &result.logits_grad);
  return result;
}

EvalResult EvaluateSoftmaxCrossEntropy(const Tensor& logits,
                                       const std::vector<int>& labels) {
  const int64_t batch = logits.rows();
  CHECK_EQ(static_cast<size_t>(batch), labels.size());

  EvalResult result;
  Tensor probs(logits.shape());
  SoftmaxRows(logits, &probs);
  for (int64_t r = 0; r < batch; ++r) {
    result.Add(EvaluateSoftmaxCrossEntropyRow(
        logits, probs, r, labels[static_cast<size_t>(r)]));
  }
  return result;
}

EvalResult EvaluateSoftmaxCrossEntropyRow(const Tensor& logits,
                                          const Tensor& probs, int64_t r,
                                          int label) {
  CHECK_GE(label, 0);
  CHECK_LT(label, logits.cols());
  EvalResult result;
  const double p =
      std::max(static_cast<double>(probs.at(r, label)), kProbFloor);
  result.loss_sum = -std::log(p);
  if (ArgMaxRow(probs, r) == label) result.correct = 1;
  if (LabelInTopK(logits, r, label, 5)) result.correct_top5 = 1;
  return result;
}

bool LabelInTopK(const Tensor& logits, int64_t r, int label, int k) {
  const int64_t cols = logits.cols();
  CHECK_GE(label, 0);
  CHECK_LT(label, cols);
  if (k >= cols) return true;
  const float* row = logits.data() + r * cols;
  const float target = row[label];
  // Count entries strictly larger than the label's logit; ties resolve in
  // the label's favor, matching the "at least one output matches" rule.
  int larger = 0;
  for (int64_t c = 0; c < cols; ++c) {
    if (row[c] > target) ++larger;
  }
  return larger < k;
}

}  // namespace lpsgd
