// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/dense.h"

#include <cmath>

#include "base/logging.h"
#include "tensor/ops.h"

namespace lpsgd {

DenseLayer::DenseLayer(std::string name, int64_t in_features,
                       int64_t out_features, Rng* rng)
    : name_(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      weight_(Shape({out_features, in_features})),
      weight_grad_(Shape({out_features, in_features})),
      bias_(Shape({out_features})),
      bias_grad_(Shape({out_features})) {
  CHECK_GT(in_features, 0);
  CHECK_GT(out_features, 0);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_features));
  weight_.FillGaussian(rng, stddev);
}

Tensor DenseLayer::Forward(const Tensor& input, bool training) {
  CHECK_EQ(input.cols(), in_features_) << name_;
  if (training) cached_input_ = input;
  Tensor output(Shape({input.rows(), out_features_}));
  Gemm(/*transpose_a=*/false, /*transpose_b=*/true, 1.0f, input, weight_,
       0.0f, &output);
  AddRowBroadcast(bias_, &output);
  return output;
}

Tensor DenseLayer::Backward(const Tensor& output_grad) {
  CHECK_EQ(output_grad.cols(), out_features_) << name_;
  CHECK_EQ(output_grad.rows(), cached_input_.rows()) << name_;
  // dW += dY^T X ; db += column sums of dY ; dX = dY W.
  Gemm(/*transpose_a=*/true, /*transpose_b=*/false, 1.0f, output_grad,
       cached_input_, 1.0f, &weight_grad_);
  Tensor bias_batch_grad(bias_grad_.shape());
  SumRowsTo(output_grad, &bias_batch_grad);
  Axpy(1.0f, bias_batch_grad, &bias_grad_);
  Tensor input_grad(cached_input_.shape());
  Gemm(/*transpose_a=*/false, /*transpose_b=*/false, 1.0f, output_grad,
       weight_, 0.0f, &input_grad);
  return input_grad;
}

void DenseLayer::CollectParams(std::vector<ParamRef>* params) {
  // CNTK dense weights are stored [out x in]: rows = out, so per-column
  // 1bitSGD buckets have `out` elements (large), which is why stock
  // 1bitSGD behaves well on fully-connected layers.
  params->push_back(ParamRef{name_ + "/W", &weight_, &weight_grad_,
                             Shape({out_features_, in_features_}),
                             ParamKind::kFullyConnected});
  params->push_back(ParamRef{name_ + "/b", &bias_, &bias_grad_,
                             Shape({out_features_}), ParamKind::kBias});
}

Shape DenseLayer::OutputShape(const Shape& input_shape) const {
  CHECK_EQ(input_shape.element_count(), in_features_);
  return Shape({out_features_});
}

}  // namespace lpsgd
